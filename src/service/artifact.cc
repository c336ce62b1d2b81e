#include "service/artifact.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pulse_opt.h"

namespace qzz::svc {

namespace {

/**
 * Ceiling on any element count read from an artifact.  Counts stream
 * in as size_t, so a corrupt field like "-1" parses to 2^64-1 and an
 * unchecked resize() would throw length_error (or worse, allocate);
 * real programs are nowhere near this bound.
 */
constexpr size_t kMaxCount = size_t(1) << 24;

bool
readCount(std::istream &is, size_t &out)
{
    return bool(is >> out) && out <= kMaxCount;
}

void
writeGate(std::ostream &os, const ckt::Gate &g)
{
    os << "g " << int(g.kind) << " " << g.qubits.size();
    for (int q : g.qubits)
        os << " " << q;
    os << " " << g.params.size();
    for (double p : g.params)
        os << " " << p;
}

/** Reads the tokens produced by writeGate() after its "g" tag.
 *  Schedule-layer gates never pass QuantumCircuit::add(), so the kind
 *  and operand counts are validated here. */
bool
readGate(std::istream &is, ckt::Gate &g)
{
    int kind = 0;
    size_t nq = 0, np = 0;
    if (!(is >> kind) || kind < 0 || kind > int(ckt::kLastGateKind))
        return false;
    g.kind = ckt::GateKind(kind);
    if (!(is >> nq) || nq != size_t(ckt::gateArity(g.kind)))
        return false;
    g.qubits.resize(nq);
    for (int &q : g.qubits)
        if (!(is >> q))
            return false;
    if (!(is >> np) || np > ckt::Gate::Params::capacity())
        return false;
    g.params.resize(np);
    for (double &p : g.params)
        if (!(is >> p))
            return false;
    return true;
}

bool
expectTag(std::istream &is, const char *tag)
{
    std::string tok;
    return (is >> tok) && tok == tag;
}

/** Length-prefixed string: "<len> <exactly len bytes>". */
void
writeString(std::ostream &os, const std::string &s)
{
    os << s.size() << " " << s;
}

bool
readString(std::istream &is, std::string &s)
{
    size_t len = 0;
    if (!readCount(is, len))
        return false;
    if (is.get() != ' ')
        return false;
    s.resize(len);
    is.read(s.data(), std::streamsize(len));
    return bool(is);
}

} // namespace

void
writeProgramArtifact(const core::CompiledProgram &program,
                     std::ostream &os)
{
    os.precision(17); // max_digits10: exact binary64 round-trip
    os << "qzzprog " << kArtifactVersion << "\n";
    os << "pulse_method " << core::pulseMethodName(program.pulse_method)
       << "\n";
    os << "sched_policy " << core::schedPolicyName(program.sched_policy)
       << "\n";
    os << "calib_epoch " << program.calib_epoch << "\n";

    const ckt::QuantumCircuit &native = program.native;
    os << "native " << native.numQubits() << " ";
    writeString(os, native.name());
    os << "\n" << native.size() << "\n";
    for (const ckt::Gate &g : native.gates()) {
        writeGate(os, g);
        os << "\n";
    }

    os << "layout " << program.final_layout.size();
    for (int v : program.final_layout)
        os << " " << v;
    os << "\n";

    const core::Schedule &sched = program.schedule;
    os << "schedule " << sched.num_qubits << " " << sched.layers.size()
       << "\n";
    for (const core::Layer &layer : sched.layers) {
        os << "layer " << int(layer.is_virtual) << " " << layer.duration
           << "\n";
        os << "side " << layer.side.size();
        for (int s : layer.side)
            os << " " << s;
        os << "\n";
        os << "metrics " << layer.metrics.nc << " " << layer.metrics.nq
           << " " << layer.metrics.unsuppressed_edge.size();
        for (char f : layer.metrics.unsuppressed_edge)
            os << " " << int(f);
        os << " " << layer.metrics.region_of.size();
        for (int r : layer.metrics.region_of)
            os << " " << r;
        os << "\n";
        os << "gates " << layer.gates.size() << "\n";
        for (const core::ScheduledGate &sg : layer.gates) {
            writeGate(os, sg.gate);
            os << " " << int(sg.supplemented) << "\n";
        }
    }
    os << "end\n";
}

std::string
programArtifactString(const core::CompiledProgram &program)
{
    std::ostringstream os;
    writeProgramArtifact(program, os);
    return os.str();
}

namespace {

/** Reads the four header lines into @p program's configuration. */
bool
readHeader(std::istream &is, core::CompiledProgram &program)
{
    int version = 0;
    if (!expectTag(is, "qzzprog") || !(is >> version) ||
        version != kArtifactVersion)
        return false;

    std::string method_name, policy_name;
    if (!expectTag(is, "pulse_method") || !(is >> method_name))
        return false;
    if (!expectTag(is, "sched_policy") || !(is >> policy_name))
        return false;
    const auto method = core::pulseMethodFromName(method_name);
    const auto policy = core::schedPolicyFromName(policy_name);
    if (!method || !policy)
        return false;
    program.pulse_method = *method;
    program.sched_policy = *policy;
    return expectTag(is, "calib_epoch") && bool(is >> program.calib_epoch);
}

} // namespace

uint64_t
readArtifactCalibEpoch(std::istream &is)
{
    core::CompiledProgram program;
    return readHeader(is, program) ? program.calib_epoch : 0;
}

std::optional<core::CompiledProgram>
readProgramArtifact(std::istream &is, bool attach_library)
{
    core::CompiledProgram program;
    if (!readHeader(is, program))
        return std::nullopt;

    int native_qubits = 0;
    std::string native_name;
    size_t num_gates = 0;
    if (!expectTag(is, "native") || !(is >> native_qubits) ||
        !readString(is, native_name) || !readCount(is, num_gates))
        return std::nullopt;
    program.native = ckt::QuantumCircuit(native_qubits, native_name);
    for (size_t i = 0; i < num_gates; ++i) {
        ckt::Gate g;
        if (!expectTag(is, "g") || !readGate(is, g))
            return std::nullopt;
        program.native.add(std::move(g));
    }

    size_t layout_size = 0;
    if (!expectTag(is, "layout") || !readCount(is, layout_size))
        return std::nullopt;
    program.final_layout.resize(layout_size);
    for (int &v : program.final_layout)
        if (!(is >> v))
            return std::nullopt;

    size_t num_layers = 0;
    if (!expectTag(is, "schedule") ||
        !(is >> program.schedule.num_qubits) ||
        !readCount(is, num_layers))
        return std::nullopt;
    program.schedule.layers.resize(num_layers);
    for (core::Layer &layer : program.schedule.layers) {
        int is_virtual = 0;
        if (!expectTag(is, "layer") || !(is >> is_virtual) ||
            !(is >> layer.duration))
            return std::nullopt;
        layer.is_virtual = is_virtual != 0;

        size_t side_size = 0;
        if (!expectTag(is, "side") || !readCount(is, side_size))
            return std::nullopt;
        layer.side.resize(side_size);
        for (int &s : layer.side)
            if (!(is >> s))
                return std::nullopt;

        size_t n_unsup = 0, n_region = 0;
        if (!expectTag(is, "metrics") || !(is >> layer.metrics.nc) ||
            !(is >> layer.metrics.nq) || !readCount(is, n_unsup))
            return std::nullopt;
        layer.metrics.unsuppressed_edge.resize(n_unsup);
        for (char &f : layer.metrics.unsuppressed_edge) {
            int v = 0;
            if (!(is >> v))
                return std::nullopt;
            f = char(v);
        }
        if (!readCount(is, n_region))
            return std::nullopt;
        layer.metrics.region_of.resize(n_region);
        for (int &r : layer.metrics.region_of)
            if (!(is >> r))
                return std::nullopt;

        size_t n_layer_gates = 0;
        if (!expectTag(is, "gates") || !readCount(is, n_layer_gates))
            return std::nullopt;
        layer.gates.resize(n_layer_gates);
        for (core::ScheduledGate &sg : layer.gates) {
            int supplemented = 0;
            if (!expectTag(is, "g") || !readGate(is, sg.gate) ||
                !(is >> supplemented))
                return std::nullopt;
            sg.supplemented = supplemented != 0;
        }
    }
    if (!expectTag(is, "end"))
        return std::nullopt;

    if (attach_library)
        program.library = core::getPulseLibraryShared(program.pulse_method);
    return program;
}

} // namespace qzz::svc
