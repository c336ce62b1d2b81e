/**
 * @file
 * Artifact decoder: gates whose kind or operand counts the IR cannot
 * hold are rejected (a cache miss), never served.  Schedule-layer
 * gates do not pass QuantumCircuit::add(), so the decoder is their
 * only check.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

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

/** The artifact of makeProgram() with its schedule-layer gate line
 *  ("g <kind> <nq> <qubits> <np> <params> <supplemented>") replaced. */
std::string
withLayerGate(const std::string &gate_line)
{
    std::string text = programArtifactString(makeProgram());
    const std::string layer_gate = "gates 1\ng 0 1 0 0 0\n";
    const size_t at = text.find(layer_gate);
    EXPECT_NE(at, std::string::npos) << text;
    text.replace(at, layer_gate.size(), "gates 1\n" + gate_line + "\n");
    return text;
}

bool
decodes(const std::string &text)
{
    std::istringstream in(text);
    return readProgramArtifact(in, /*attach_library=*/false).has_value();
}

TEST(ArtifactTest, GateKindOutsideEnumIsRejected)
{
    EXPECT_TRUE(decodes(withLayerGate("g 0 1 0 0 0"))); // unmangled
    const int past_last = int(ckt::kLastGateKind) + 1;
    EXPECT_FALSE(decodes(
        withLayerGate("g " + std::to_string(past_last) + " 1 0 0 0")));
    EXPECT_FALSE(decodes(withLayerGate("g -1 1 0 0 0")));

    // Through the disk tier it is a miss, not a hit with kind "?".
    const auto dir = std::filesystem::temp_directory_path() /
                     ("qzz_artifact_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const Fingerprint fp = FingerprintBuilder().mix(uint64_t(1)).finish();
    std::ofstream(dir / (fp.hex() + ".qzzprog"))
        << withLayerGate("g 99 1 0 0 0");
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
    // SX is single-qubit; RZX (kind 2) is two-qubit.
    EXPECT_FALSE(decodes(withLayerGate("g 0 2 0 1 0 0")));
    EXPECT_FALSE(decodes(withLayerGate("g 0 0 0 0")));
    EXPECT_FALSE(decodes(withLayerGate("g 2 1 0 1 1.5 0")));
}

TEST(ArtifactTest, ParamsAboveInlineCapacityAreRejected)
{
    const size_t cap = ckt::Gate::Params::capacity();
    std::string params = std::to_string(cap + 1);
    for (size_t i = 0; i <= cap; ++i)
        params += " 0.5";
    EXPECT_FALSE(decodes(withLayerGate("g 0 1 0 " + params + " 0")));
}

TEST(ArtifactTest, CalibEpochReadsBackFromTheHeaderAlone)
{
    core::CompiledProgram p = makeProgram();
    p.calib_epoch = 1234567;
    std::istringstream in(programArtifactString(p));
    EXPECT_EQ(readArtifactCalibEpoch(in), 1234567u);

    const auto epochOf = [](const std::string &text) {
        std::istringstream is(text);
        return readArtifactCalibEpoch(is);
    };
    std::string text = programArtifactString(p);
    EXPECT_EQ(epochOf(text.substr(0, text.find("calib_epoch"))), 0u);
    text.replace(text.find("calib_epoch"), 11, "calib_epoc");
    EXPECT_EQ(epochOf(text), 0u);
    EXPECT_EQ(epochOf("qzzprog 1\npulse_method Gaussian\n"
                      "sched_policy ParSched\ncalib_epoch 9\n"),
              0u); // another version
    EXPECT_EQ(epochOf(""), 0u);
}

} // namespace
} // namespace qzz::svc
