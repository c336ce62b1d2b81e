/**
 * @file
 * Artifact codec: the JSON document decodes to exactly the program
 * that was encoded, and everything else reads as nullopt (a cache
 * miss), never as a program the IR cannot hold and never as a crash.
 *
 *  - gates whose kind, operand count, operand range or parameter count
 *    the IR cannot hold are rejected; schedule-layer gates do not pass
 *    QuantumCircuit::add(), so the decoder is their only check;
 *  - decode(encode(p)) equals p field by field under every scheduling
 *    policy;
 *  - seeded flip / truncate / insert mutants of a real artifact read
 *    as nullopt or as a program that re-encodes to itself.
 */

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "circuit/benchmarks.h"
#include "common/rng.h"
#include "core/compiler.h"
#include "graph/topologies.h"
#include "service/artifact.h"
#include "service/program_cache.h"

namespace qzz::svc {
namespace {

/** A one-gate program: native SX(0), scheduled in one layer. */
core::CompiledProgram
makeProgram()
{
    core::CompiledProgram p;
    p.native = ckt::QuantumCircuit(1, "sx");
    p.native.sx(0);
    core::Layer layer;
    layer.duration = 35.0;
    layer.gates.push_back({ckt::Gate(ckt::GateKind::SX, {0}), false});
    p.schedule.num_qubits = 1;
    p.schedule.layers.push_back(layer);
    p.pulse_method = core::PulseMethod::Gaussian;
    p.sched_policy = core::SchedPolicy::Par;
    return p;
}

/** The artifact of makeProgram() with its schedule-layer gate object
 *  replaced by @p gate (the members inside the braces). */
std::string
withLayerGate(const std::string &gate)
{
    std::string text = programArtifactString(makeProgram());
    const std::string layer_gate =
        R"({"kind":"SX","qubits":[0],"supplemented":false})";
    const size_t at = text.find(layer_gate);
    EXPECT_NE(at, std::string::npos) << text;
    text.replace(at, layer_gate.size(), "{" + gate + "}");
    return text;
}

std::optional<core::CompiledProgram>
decode(const std::string &text)
{
    std::istringstream in(text);
    return readProgramArtifact(in, /*attach_library=*/false);
}

bool
decodes(const std::string &text)
{
    return decode(text).has_value();
}

/** A compiled program over a jittered 2x3 grid (so the weighted and
 *  cycle-aware policies differ from ZZXSched). */
core::CompiledProgram
compiled(core::SchedPolicy policy, const ckt::QuantumCircuit &circuit)
{
    const graph::Topology topo = graph::gridTopology(2, 3);
    Rng rng(5);
    dev::CalibrationJitter jitter;
    jitter.zz_rel = 0.3;
    const dev::Device device(
        topo, dev::Calibration::jittered(topo, dev::DeviceParams{}, jitter,
                                         rng));
    const core::Compiler compiler =
        core::CompilerBuilder(device)
            .pulseMethod(core::PulseMethod::Gaussian)
            .schedPolicy(policy)
            .build();
    core::CompileResult result = compiler.compile(circuit);
    EXPECT_TRUE(result.ok()) << result.status.message;
    return std::move(result.program);
}

void
expectSameGate(const ckt::Gate &a, const ckt::Gate &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.qubits, b.qubits);
    ASSERT_EQ(a.params.size(), b.params.size());
    for (size_t i = 0; i < a.params.size(); ++i)
        EXPECT_EQ(std::bit_cast<uint64_t>(a.params[i]),
                  std::bit_cast<uint64_t>(b.params[i]));
}

TEST(ArtifactTest, GateKindOutsideEnumIsRejected)
{
    EXPECT_TRUE(decodes(withLayerGate(
        R"("kind":"SX","qubits":[0],"supplemented":false)")));
    EXPECT_FALSE(decodes(withLayerGate(
        R"("kind":"?","qubits":[0],"supplemented":false)")));
    EXPECT_FALSE(decodes(withLayerGate(
        R"("kind":"sx","qubits":[0],"supplemented":false)")));
    EXPECT_FALSE(decodes(withLayerGate(
        R"("kind":0,"qubits":[0],"supplemented":false)")));

    // Through the disk tier it is a miss, not a hit with kind "?".
    const auto dir = std::filesystem::temp_directory_path() /
                     ("qzz_artifact_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const Fingerprint fp = FingerprintBuilder().mix(uint64_t(1)).finish();
    std::ofstream(dir / (fp.hex() + ".qzzprog")) << withLayerGate(
        R"("kind":"?","qubits":[0],"supplemented":false)");
    {
        ProgramCacheConfig config;
        config.capacity = 4;
        config.shards = 1;
        config.artifact_dir = dir.string();
        ProgramCache cache(config);
        EXPECT_EQ(cache.lookup(fp), nullptr);
        EXPECT_EQ(cache.stats().misses, 1u);
    }
    std::filesystem::remove_all(dir);
}

TEST(ArtifactTest, OperandCountOffTheKindsArityIsRejected)
{
    // SX is single-qubit; RZX is two-qubit.
    EXPECT_FALSE(decodes(withLayerGate(
        R"("kind":"SX","qubits":[0,0],"supplemented":false)")));
    EXPECT_FALSE(decodes(withLayerGate(
        R"("kind":"SX","qubits":[],"supplemented":false)")));
    EXPECT_FALSE(decodes(withLayerGate(
        R"("kind":"RZX","qubits":[0],"params":[1.5],"supplemented":false)")));
}

TEST(ArtifactTest, OperandsOutsideTheRegisterAreRejected)
{
    // The program has one qubit: 1 and -1 are out of range, and a
    // fractional operand is no qubit at all.
    EXPECT_FALSE(decodes(withLayerGate(
        R"("kind":"SX","qubits":[1],"supplemented":false)")));
    EXPECT_FALSE(decodes(withLayerGate(
        R"("kind":"SX","qubits":[-1],"supplemented":false)")));
    EXPECT_FALSE(decodes(withLayerGate(
        R"("kind":"SX","qubits":[0.5],"supplemented":false)")));
}

TEST(ArtifactTest, ParamsAboveInlineCapacityAreRejected)
{
    const size_t cap = ckt::Gate::Params::capacity();
    std::string params = "0.5";
    for (size_t i = 0; i < cap; ++i)
        params += ",0.5";
    EXPECT_FALSE(decodes(withLayerGate(R"("kind":"SX","qubits":[0],"params":[)" +
                                       params + R"(],"supplemented":false)")));
    EXPECT_FALSE(decodes(withLayerGate(
        R"("kind":"SX","qubits":[0],"params":[null],"supplemented":false)")));
}

TEST(ArtifactTest, MissingAndUnknownMembersAreRejected)
{
    EXPECT_FALSE(decodes(withLayerGate(R"("kind":"SX","qubits":[0])")));
    EXPECT_FALSE(decodes(withLayerGate(
        R"("kind":"SX","qubits":[0],"supplemented":false,"extra":1)")));
    std::string text = programArtifactString(makeProgram());
    text.replace(text.find("\"num_qubits\""), 12, "\"num_qubitz\"");
    EXPECT_FALSE(decodes(text));
}

TEST(ArtifactTest, OtherVersionsAndOversizedDocumentsAreRejected)
{
    std::string text = programArtifactString(makeProgram());
    ASSERT_EQ(text.rfind("{\"qzzprog\":3,", 0), 0u) << text;
    EXPECT_TRUE(decodes(text));
    text.replace(0, 13, "{\"qzzprog\":2,");
    EXPECT_FALSE(decodes(text));

    // A version-2 text artifact is simply not JSON.
    EXPECT_FALSE(decodes("qzzprog 2\npulse_method Gaussian\n"
                         "sched_policy ParSched\ncalib_epoch 0\n"));

    // Trailing whitespace past the bound: the document itself is
    // valid, its size is not.
    std::string padded = programArtifactString(makeProgram());
    ASSERT_TRUE(decodes(padded + "\n"));
    padded.resize(kMaxArtifactBytes + 1, ' ');
    EXPECT_FALSE(decodes(padded));
}

/** A read-only buffer over a string that cannot seek, like a pipe. */
class PipeBuf : public std::streambuf
{
  public:
    explicit PipeBuf(std::string text) : text_(std::move(text))
    {
        setg(text_.data(), text_.data(), text_.data() + text_.size());
    }

  private:
    std::string text_;
};

TEST(ArtifactTest, StreamsThatCannotSeekAreReadUnderTheSameBound)
{
    const std::string text = programArtifactString(makeProgram());
    PipeBuf pipe(text);
    std::istream in(&pipe);
    const auto program = readProgramArtifact(in, /*attach_library=*/false);
    ASSERT_TRUE(program.has_value());
    EXPECT_EQ(programArtifactString(*program), text);

    std::string padded = text;
    padded.resize(kMaxArtifactBytes + 1, ' ');
    PipeBuf long_pipe(padded);
    std::istream long_in(&long_pipe);
    EXPECT_FALSE(readProgramArtifact(long_in, false).has_value());
}

TEST(ArtifactTest, CalibEpochReadsBackFromTheHeaderAlone)
{
    // The "header" is the document's top-level calib_epoch member,
    // read without decoding the program.
    core::CompiledProgram p = makeProgram();
    p.calib_epoch = 1234567;
    const auto epochOf = [](const std::string &text) {
        std::istringstream is(text);
        return readArtifactCalibEpoch(is);
    };
    const std::string text = programArtifactString(p);
    EXPECT_EQ(epochOf(text), 1234567u);

    EXPECT_EQ(epochOf(text.substr(0, text.find("calib_epoch"))), 0u);
    std::string renamed = text;
    renamed.replace(renamed.find("calib_epoch"), 11, "calib_epoc");
    EXPECT_EQ(epochOf(renamed), 0u);
    EXPECT_EQ(epochOf(R"({"qzzprog":2,"calib_epoch":9})"), 0u);
    EXPECT_EQ(epochOf("qzzprog 2\npulse_method Gaussian\n"
                      "sched_policy ParSched\ncalib_epoch 9\n"),
              0u);
    EXPECT_EQ(epochOf(""), 0u);
}

TEST(ArtifactTest, DecodeOfEncodeIsTheIdentityForEveryPolicy)
{
    const ckt::QuantumCircuit circuit = ckt::qft(5);
    for (const core::SchedPolicy policy :
         {core::SchedPolicy::Par, core::SchedPolicy::Zzx,
          core::SchedPolicy::ZzxWeighted, core::SchedPolicy::Exact,
          core::SchedPolicy::CycleAware}) {
        SCOPED_TRACE(core::schedPolicyName(policy));
        core::CompiledProgram p = compiled(policy, circuit);
        p.calib_epoch = 42;
        const std::string text = programArtifactString(p);
        const auto back = decode(text);
        ASSERT_TRUE(back.has_value());
        // The streamed writer writes the same bytes (its many-piece
        // path is the disk tier's >4 MiB round trip).
        std::ostringstream streamed;
        EXPECT_EQ(writeProgramArtifact(p, &streamed), text.size());
        EXPECT_EQ(streamed.str(), text);
        EXPECT_EQ(writeProgramArtifact(p, nullptr), text.size());

        EXPECT_EQ(back->pulse_method, p.pulse_method);
        EXPECT_EQ(back->sched_policy, policy);
        EXPECT_EQ(back->calib_epoch, 42u);
        EXPECT_EQ(back->final_layout, p.final_layout);
        EXPECT_EQ(back->library, nullptr);

        EXPECT_EQ(back->native.name(), p.native.name());
        EXPECT_EQ(back->native.numQubits(), p.native.numQubits());
        ASSERT_EQ(back->native.size(), p.native.size());
        for (size_t i = 0; i < p.native.size(); ++i)
            expectSameGate(back->native.gates()[i], p.native.gates()[i]);

        const core::Schedule &s = p.schedule, &t = back->schedule;
        EXPECT_EQ(t.num_qubits, s.num_qubits);
        ASSERT_EQ(t.layers.size(), s.layers.size());
        for (size_t l = 0; l < s.layers.size(); ++l) {
            const core::Layer &a = s.layers[l], &b = t.layers[l];
            EXPECT_EQ(b.is_virtual, a.is_virtual);
            EXPECT_EQ(std::bit_cast<uint64_t>(b.duration),
                      std::bit_cast<uint64_t>(a.duration));
            EXPECT_EQ(b.side, a.side);
            EXPECT_EQ(b.metrics.nc, a.metrics.nc);
            EXPECT_EQ(b.metrics.nq, a.metrics.nq);
            EXPECT_EQ(b.metrics.unsuppressed_edge,
                      a.metrics.unsuppressed_edge);
            EXPECT_EQ(b.metrics.region_of, a.metrics.region_of);
            ASSERT_EQ(b.gates.size(), a.gates.size());
            for (size_t g = 0; g < a.gates.size(); ++g) {
                expectSameGate(b.gates[g].gate, a.gates[g].gate);
                EXPECT_EQ(b.gates[g].supplemented, a.gates[g].supplemented);
            }
        }
        EXPECT_EQ(programArtifactString(*back), text);
    }
}

TEST(ArtifactTest, MutantsDecodeToNulloptOrToAFixedPoint)
{
    // Seeded single-site mutants of a real compiled artifact: a byte
    // flipped, the document truncated, or a byte inserted.  Half the
    // replacement bytes come from JSON's own alphabet, so mutants
    // reach the schema walk rather than stopping in the parser.
    const std::string original = programArtifactString(
        compiled(core::SchedPolicy::Zzx, ckt::qft(4)));
    ASSERT_TRUE(decodes(original));
    static constexpr char kJsonBytes[] = "0123456789-+.eE,:[]{}\" tfnul";

    Rng rng(2024);
    constexpr int kMutants = 12000;
    int decoded = 0, changed = 0;
    for (int i = 0; i < kMutants; ++i) {
        std::string m = original;
        const size_t at = size_t(rng.uniformInt(0, int(m.size()) - 1));
        const char byte =
            rng.uniformInt(0, 1) == 0
                ? kJsonBytes[rng.uniformInt(0, int(sizeof kJsonBytes) - 2)]
                : char(rng.uniformInt(0, 255));
        switch (rng.uniformInt(0, 2)) {
        case 0:
            m[at] = byte;
            break;
        case 1:
            m.resize(at);
            break;
        default:
            m.insert(m.begin() + std::ptrdiff_t(at), byte);
            break;
        }
        const auto p = decode(m);
        if (!p)
            continue;
        ++decoded;
        const std::string encoded = programArtifactString(*p);
        changed += encoded != original;
        const auto again = decode(encoded);
        ASSERT_TRUE(again.has_value()) << "mutant " << i;
        ASSERT_EQ(programArtifactString(*again), encoded) << "mutant " << i;
    }
    // The fuzz is only meaningful if mutants reach the decoder and
    // some of them decode to a different program.
    EXPECT_GT(decoded, 0);
    EXPECT_GT(changed, 0);
}

} // namespace
} // namespace qzz::svc
