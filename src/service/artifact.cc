#include "service/artifact.h"

#include <istream>
#include <limits>
#include <vector>

#include "common/json.h"
#include "core/pulse_opt.h"
#include "core/schedule_io.h"

namespace qzz::svc {

namespace {

constexpr int64_t kIntMin = std::numeric_limits<int>::min();
constexpr int64_t kIntMax = std::numeric_limits<int>::max();

/** An array of integers in [lo, hi] into @p out. */
bool
readInts(json::Cursor &c, int64_t lo, int64_t hi, std::vector<int> &out)
{
    if (!c.beginArray())
        return false;
    int64_t v = 0;
    while (c.more()) {
        if (!c.integer(v, lo, hi))
            return false;
        out.push_back(int(v));
    }
    return c.ok();
}

/**
 * The members core::writeGateMembers() writes, inside an object the
 * caller opened.  Schedule-layer gates never pass
 * QuantumCircuit::add(), so the kind, the arity, distinct operands in
 * [0, @p num_qubits) and the inline parameter capacity are all
 * checked here.
 */
bool
readGateMembers(json::Cursor &c, int num_qubits, ckt::Gate &g)
{
    std::string name;
    if (!c.key("kind") || !c.string(name))
        return false;
    const std::optional<ckt::GateKind> kind = ckt::gateKindFromName(name);
    if (!kind || !c.key("qubits") || !c.beginArray())
        return false;
    g.kind = *kind;
    const size_t arity = size_t(ckt::gateArity(g.kind));
    int64_t q = 0;
    while (c.more()) {
        if (g.qubits.size() == arity || !c.integer(q, 0, num_qubits - 1))
            return false;
        g.qubits.push_back(int(q));
    }
    if (!c.ok() || g.qubits.size() != arity ||
        (arity == 2 && g.qubits[0] == g.qubits[1]))
        return false;
    if (!c.tryKey("params"))
        return c.ok();
    if (!c.beginArray())
        return false;
    double p = 0.0;
    while (c.more()) {
        if (g.params.size() == ckt::Gate::Params::capacity() || !c.real(p))
            return false;
        g.params.push_back(p);
    }
    return c.ok();
}

/** One layer: core::writeLayerMembers() with every member, plus the
 *  suppression metrics' per-edge flags (a string of '0' / '1', one
 *  character per edge) and per-vertex regions. */
bool
readLayer(json::Cursor &c, int num_qubits, core::Layer &layer)
{
    core::SuppressionMetrics &m = layer.metrics;
    int64_t nq = 0, nc = 0;
    if (!c.beginObject() || !c.key("virtual") ||
        !c.boolean(layer.is_virtual) || !c.key("duration_ns") ||
        !c.real(layer.duration) || !c.key("nq") ||
        !c.integer(nq, kIntMin, kIntMax) || !c.key("nc") ||
        !c.integer(nc, kIntMin, kIntMax) || !c.key("side") ||
        !readInts(c, kIntMin, kIntMax, layer.side) || !c.key("gates") ||
        !c.beginArray())
        return false;
    m.nq = int(nq);
    m.nc = int(nc);
    while (c.more()) {
        core::ScheduledGate &sg = layer.gates.emplace_back();
        if (!c.beginObject() || !readGateMembers(c, num_qubits, sg.gate) ||
            !c.key("supplemented") || !c.boolean(sg.supplemented) ||
            !c.endObject())
            return false;
    }
    std::string flags;
    if (!c.key("unsuppressed_edge") || !c.string(flags) ||
        flags.find_first_not_of("01") != std::string::npos ||
        !c.key("region_of") || !readInts(c, kIntMin, kIntMax, m.region_of))
        return false;
    for (char f : flags)
        m.unsuppressed_edge.push_back(char(f - '0'));
    return c.endObject();
}

/** The members every artifact opens with, through calib_epoch. */
bool
readHeader(json::Cursor &c, core::CompiledProgram &program)
{
    int64_t version = 0, epoch = 0;
    std::string method, policy;
    if (!c.beginObject() || !c.key("qzzprog") ||
        !c.integer(version, kArtifactVersion, kArtifactVersion) ||
        !c.key("pulse_method") || !c.string(method) ||
        !c.key("sched_policy") || !c.string(policy) ||
        !c.key("calib_epoch") ||
        !c.integer(epoch, 0, std::numeric_limits<int64_t>::max()))
        return false;
    const auto m = core::pulseMethodFromName(method);
    const auto p = core::schedPolicyFromName(policy);
    if (!m || !p)
        return false;
    program.pulse_method = *m;
    program.sched_policy = *p;
    program.calib_epoch = uint64_t(epoch);
    return true;
}

/** The program of one artifact document, read member by member in
 *  the order programArtifactString() writes them. */
std::optional<core::CompiledProgram>
decodeProgram(std::string_view text)
{
    json::Cursor c(text);
    core::CompiledProgram program;
    int64_t num_qubits = 0, native_qubits = 0;
    std::string name;
    if (!readHeader(c, program) || !c.key("num_qubits") ||
        !c.integer(num_qubits, 0, kIntMax) || !c.key("native") ||
        !c.beginObject() || !c.key("name") || !c.string(name) ||
        !c.key("qubits") || !c.integer(native_qubits, 1, kIntMax) ||
        !c.key("gates") || !c.beginArray())
        return std::nullopt;
    program.schedule.num_qubits = int(num_qubits);
    program.native = ckt::QuantumCircuit(int(native_qubits), name);
    while (c.more()) {
        ckt::Gate g;
        if (!c.beginObject() || !readGateMembers(c, int(native_qubits), g) ||
            !c.endObject())
            return std::nullopt;
        program.native.add(g); // cannot throw: readGateMembers checked it
    }
    if (!c.endObject() || !c.key("final_layout") ||
        !readInts(c, kIntMin, kIntMax, program.final_layout) ||
        !c.key("layers") || !c.beginArray())
        return std::nullopt;
    while (c.more())
        if (!readLayer(c, program.schedule.num_qubits,
                       program.schedule.layers.emplace_back()))
            return std::nullopt;
    if (!c.endObject() || !c.end())
        return std::nullopt;
    return program;
}

} // namespace

namespace {

/** The artifact writers hand the document on in pieces of this size. */
constexpr size_t kRenderChunk = size_t(64) << 10;

/** Renders the artifact of @p program into @p out, calling @p drain
 *  with it whenever it passes kRenderChunk; drain may empty it. */
template <typename Drain>
void
renderArtifact(const core::CompiledProgram &program, std::string &out,
               Drain drain)
{
    json::Writer w(out);
    w.beginObject()
        .field("qzzprog", kArtifactVersion)
        .field("pulse_method", core::pulseMethodName(program.pulse_method))
        .field("sched_policy", core::schedPolicyName(program.sched_policy))
        .field("calib_epoch", program.calib_epoch)
        .field("num_qubits", program.schedule.num_qubits);

    const ckt::QuantumCircuit &native = program.native;
    w.key("native")
        .beginObject()
        .field("name", native.name())
        .field("qubits", native.numQubits());
    w.key("gates").beginArray();
    for (const ckt::Gate &g : native.gates()) {
        w.beginObject();
        core::writeGateMembers(w, g);
        w.endObject();
        if (out.size() >= kRenderChunk)
            drain(out);
    }
    w.endArray().endObject();

    w.key("final_layout").array(program.final_layout);
    w.key("layers").beginArray();
    std::string flags;
    for (const core::Layer &layer : program.schedule.layers) {
        w.beginObject();
        core::writeLayerMembers(w, layer, true);
        flags.clear();
        for (char f : layer.metrics.unsuppressed_edge)
            flags += f != 0 ? '1' : '0';
        w.field("unsuppressed_edge", flags);
        w.key("region_of").array(layer.metrics.region_of);
        w.endObject();
        if (out.size() >= kRenderChunk)
            drain(out);
    }
    w.endArray().endObject();
}

} // namespace

std::string
programArtifactString(const core::CompiledProgram &program)
{
    std::string out;
    renderArtifact(program, out, [](std::string &) {});
    return out;
}

uint64_t
writeProgramArtifact(const core::CompiledProgram &program, std::ostream *os)
{
    std::string piece;
    uint64_t bytes = 0;
    const auto drain = [&](std::string &out) {
        bytes += out.size();
        if (os != nullptr)
            os->write(out.data(), std::streamsize(out.size()));
        out.clear();
    };
    renderArtifact(program, piece, drain);
    drain(piece);
    return bytes;
}

uint64_t
readArtifactCalibEpoch(std::istream &is)
{
    // The header members come first and are short: a prefix holds
    // them, so a stray artifact is never read whole for its epoch.
    std::string head(1024, '\0');
    is.read(head.data(), std::streamsize(head.size()));
    head.resize(size_t(is.gcount()));
    json::Cursor c(head);
    core::CompiledProgram header;
    return readHeader(c, header) ? header.calib_epoch : 0;
}

std::optional<core::CompiledProgram>
readProgramArtifact(std::istream &is, bool attach_library)
{
    const auto text = json::readBounded(is, kMaxArtifactBytes);
    auto program = text ? decodeProgram(*text) : std::nullopt;
    if (program && attach_library)
        program->library = core::getPulseLibraryShared(program->pulse_method);
    return program;
}

} // namespace qzz::svc
