/**
 * @file
 * Allocation audit for the two readers that take bytes from outside
 * the process, the request line (svc::JsonObject) and the calibration
 * document: what they allocate grows with what they keep, never with
 * what they refuse.  Counted with common/counting_new.h.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/counting_new.h"
#include "common/json.h"
#include "common/units.h"
#include "device/calibration.h"
#include "device/device.h"
#include "graph/topologies.h"
#include "service/jsonl.h"

namespace qzz {
namespace {

using test::AllocCounter;

/** A request line holding one array of zeros, @p bytes long. */
std::string
arrayLine(size_t bytes)
{
    std::string line = "{\"a\":[0";
    while (line.size() + 4 <= bytes)
        line += ",0";
    return line + "]}";
}

/** Peak bytes held at once by @p read, per byte of @p text. */
template <typename Read>
double
peakPerByte(const std::string &text, Read read)
{
    const AllocCounter counter;
    EXPECT_TRUE(read(text)) << text.substr(0, 200);
    counter.count();
    return double(counter.peakBytes()) / double(text.size());
}

TEST(JsonAllocTest, NestedValueIsRefusedBeforeItIsRead)
{
    // The line is rejected at the '[': a 1 MiB array costs what a
    // 1 KiB one does.
    const auto blocks = [](size_t bytes) {
        const std::string line = arrayLine(bytes);
        std::string error;
        const AllocCounter counter;
        EXPECT_FALSE(svc::JsonObject::parse(line, &error).has_value());
        const uint64_t n = counter.count();
        EXPECT_EQ(error, "nested values are not part of the protocol "
                         "(key 'a') at byte offset 5");
        return n;
    };
    const uint64_t small = blocks(size_t(1) << 10);
    EXPECT_EQ(blocks(size_t(1) << 20), small);
    EXPECT_LE(small, 8u);
}

TEST(JsonAllocTest, FlatLinePeakIsASmallMultipleOfItsLength)
{
    // 30000 members of every scalar kind, 0.44 MiB.  The members are
    // kept, 72 bytes each plus the vector's growth, and past 16 of
    // them so is the duplicate-key index.  Measured: 9.77 bytes per
    // byte.
    std::string line = "{";
    for (int i = 0; i < 30000; ++i) {
        line += i == 0 ? "\"k" : ",\"k";
        line += std::to_string(i) + "\":";
        if (i % 3 == 0)
            line += std::to_string(i * 7);
        else if (i % 3 == 1)
            line += "\"v" + std::to_string(i) + "\"";
        else
            line += "true";
    }
    line += "}";
    const double factor = peakPerByte(line, [](const std::string &text) {
        return svc::JsonObject::parse(text).has_value();
    });
    EXPECT_LE(factor, 10.0);
}

TEST(JsonAllocTest, CalibrationPeakIsASmallMultipleOfItsLength)
{
    // A 30x30 grid: 900 qubits and 1740 couplings in 79 KiB.  Only the
    // snapshot's vectors are kept, 8 bytes per number of about 18
    // characters.  Measured: 0.82 bytes per byte.
    dev::DeviceParams params;
    params.t1 = us(100.0);
    params.t2 = us(80.0);
    Rng rng(4);
    const std::string text = dev::calibrationJsonString(
        dev::Calibration::sampled(graph::gridTopology(30, 30), params, rng));
    const double factor = peakPerByte(text, [](const std::string &doc) {
        return dev::readCalibrationJson(doc).has_value();
    });
    EXPECT_LE(factor, 1.0);
}

} // namespace
} // namespace qzz
