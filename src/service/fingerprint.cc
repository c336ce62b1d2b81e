#include "service/fingerprint.h"

#include <algorithm>
#include <bit>
#include <tuple>
#include <vector>

#include "circuit/dag.h"

namespace qzz::svc {

namespace {

/** SplitMix64 finalizer: full-avalanche diffusion of one word. */
uint64_t
diffuse(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

constexpr uint64_t kLaneHiSeed = 0x6a09e667f3bcc908ULL; // sqrt(2)
constexpr uint64_t kLaneLoSeed = 0xbb67ae8584caa73bULL; // sqrt(3)
constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

} // namespace

std::string
Fingerprint::hex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i)
        out[size_t(15 - i)] = digits[(hi >> (4 * i)) & 0xf];
    for (int i = 0; i < 16; ++i)
        out[size_t(31 - i)] = digits[(lo >> (4 * i)) & 0xf];
    return out;
}

std::optional<Fingerprint>
Fingerprint::fromHex(std::string_view hex)
{
    if (hex.size() != 32)
        return std::nullopt;
    Fingerprint fp;
    for (size_t i = 0; i < 32; ++i) {
        const char c = hex[i];
        uint64_t nibble;
        if (c >= '0' && c <= '9')
            nibble = uint64_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            nibble = uint64_t(c - 'a') + 10;
        else
            return std::nullopt;
        uint64_t &lane = i < 16 ? fp.hi : fp.lo;
        lane = (lane << 4) | nibble;
    }
    return fp;
}

FingerprintBuilder::FingerprintBuilder()
    : hi_(diffuse(kLaneHiSeed ^ kFingerprintVersion)),
      lo_(diffuse(kLaneLoSeed + kFingerprintVersion))
{
}

FingerprintBuilder &
FingerprintBuilder::mix(uint64_t word)
{
    ++count_;
    // Each lane sees the word keyed differently; the lanes cross-feed
    // so they never degenerate into two independent 64-bit hashes of
    // the same stream.
    const uint64_t d = diffuse(word + count_ * kGolden);
    lo_ = diffuse(lo_ ^ d) + hi_;
    hi_ = diffuse(hi_ + std::rotl(d, 23)) ^ std::rotl(lo_, 41);
    return *this;
}

FingerprintBuilder &
FingerprintBuilder::mix(double v)
{
    if (v == 0.0)
        v = 0.0; // collapse -0.0 and +0.0 to one representation
    return mix(std::bit_cast<uint64_t>(v));
}

FingerprintBuilder &
FingerprintBuilder::mix(std::string_view s)
{
    mix(uint64_t(s.size()));
    uint64_t word = 0;
    int shift = 0;
    for (unsigned char c : s) {
        word |= uint64_t(c) << shift;
        shift += 8;
        if (shift == 64) {
            mix(word);
            word = 0;
            shift = 0;
        }
    }
    if (shift != 0)
        mix(word);
    return *this;
}

FingerprintBuilder &
FingerprintBuilder::mix(const Fingerprint &fp)
{
    return mix(fp.hi).mix(fp.lo);
}

Fingerprint
FingerprintBuilder::finish() const
{
    // Final avalanche over both lanes and the word count, so prefixes
    // of a stream never share a fingerprint with the full stream.
    Fingerprint fp;
    fp.hi = diffuse(hi_ + diffuse(count_));
    fp.lo = diffuse(lo_ ^ std::rotl(fp.hi, 32));
    return fp;
}

namespace {

/** Canonical comparison key of a gate: (kind, qubits, params). */
bool
gateKeyLess(const ckt::Gate &a, const ckt::Gate &b)
{
    return std::tie(a.kind, a.qubits, a.params) <
           std::tie(b.kind, b.qubits, b.params);
}

void
mixGate(FingerprintBuilder &h, const ckt::Gate &g)
{
    h.mix(uint64_t(g.kind));
    h.mix(uint64_t(g.qubits.size()));
    for (int q : g.qubits)
        h.mix(q);
    h.mix(uint64_t(g.params.size()));
    for (double p : g.params)
        h.mix(p);
}

} // namespace

ckt::QuantumCircuit
canonicalGateOrder(const ckt::QuantumCircuit &circuit)
{
    // Repeatedly emit the schedulable gate with the smallest (kind,
    // qubits, params) key.  Two gates with equal keys address the
    // same qubits and therefore depend on each other, so they are
    // never schedulable together — the order is well defined and
    // depends only on the DAG.
    ckt::QuantumCircuit canonical(circuit.numQubits(),
                                  circuit.name());
    canonical.reserve(circuit.size());
    ckt::DagFrontier frontier(circuit);
    const std::vector<ckt::Gate> &gates = circuit.gates();
    while (!frontier.done()) {
        const std::vector<int> ready = frontier.schedulable();
        int best = ready.front();
        for (size_t i = 1; i < ready.size(); ++i)
            if (gateKeyLess(gates[size_t(ready[i])], gates[size_t(best)]))
                best = ready[i];
        canonical.add(gates[size_t(best)]);
        frontier.markScheduled(best);
    }
    return canonical;
}

Fingerprint
fingerprintOrderedCircuit(const ckt::QuantumCircuit &circuit)
{
    FingerprintBuilder h;
    h.mix(std::string_view("circuit"));
    h.mix(circuit.numQubits());
    // The display name rides along in serialized artifacts, so it is
    // part of the program's byte-for-byte identity and must key the
    // cache too.
    h.mix(std::string_view(circuit.name()));
    h.mix(uint64_t(circuit.size()));
    for (const ckt::Gate &g : circuit.gates())
        mixGate(h, g);
    return h.finish();
}

Fingerprint
fingerprintCircuit(const ckt::QuantumCircuit &circuit)
{
    return fingerprintOrderedCircuit(canonicalGateOrder(circuit));
}

Fingerprint
fingerprintCalibration(const dev::Calibration &calib)
{
    FingerprintBuilder h;
    h.mix(std::string_view("calibration"));
    // The id is provenance, not physics: it must NOT be mixed, so
    // relabelled-but-identical snapshots share cache entries.  The
    // epoch IS mixed: a recalibration is a distinct cache generation
    // even when it happens to reproduce the same numbers.
    h.mix(calib.epoch);
    h.mix(calib.num_qubits);
    h.mix(calib.coupling_mean);
    h.mix(calib.coupling_stddev);
    auto mixVector = [&h](const std::vector<double> &v) {
        h.mix(uint64_t(v.size()));
        for (double x : v)
            h.mix(x);
    };
    mixVector(calib.t1);
    mixVector(calib.t2);
    mixVector(calib.anharmonicity);
    mixVector(calib.zz);
    return h.finish();
}

Fingerprint
fingerprintDevice(const dev::Device &device)
{
    FingerprintBuilder h;
    h.mix(std::string_view("device"));
    const graph::Graph &g = device.graph();
    h.mix(g.numVertices());
    h.mix(g.numEdges());
    for (const graph::Edge &e : g.edges()) {
        h.mix(e.u);
        h.mix(e.v);
    }
    // The straight-line layout fixes the rotation-system embedding —
    // and with it the dual graph the suppression solver cuts — so it
    // is part of the device identity.
    for (const auto &[x, y] : device.topology().coords) {
        h.mix(x);
        h.mix(y);
    }
    h.mix(fingerprintCalibration(device.calibration()));
    return h.finish();
}

Fingerprint
fingerprintOptions(const core::CompileOptions &options)
{
    FingerprintBuilder h;
    h.mix(std::string_view("options"));
    h.mix(uint64_t(options.pulse));
    h.mix(uint64_t(options.sched));
    h.mix(options.zzx.suppression.alpha);
    h.mix(options.zzx.suppression.top_k);
    h.mix(options.zzx.nq_max);
    h.mix(options.zzx.nc_max);
    return h.finish();
}

Fingerprint
composeRequestFingerprint(const Fingerprint &circuit,
                          const Fingerprint &device,
                          const Fingerprint &options)
{
    FingerprintBuilder h;
    h.mix(std::string_view("request"));
    h.mix(circuit);
    h.mix(device);
    h.mix(options);
    return h.finish();
}

Fingerprint
fingerprintRequest(const ckt::QuantumCircuit &circuit,
                   const dev::Device &device,
                   const core::CompileOptions &options)
{
    return composeRequestFingerprint(fingerprintCircuit(circuit),
                                     fingerprintDevice(device),
                                     fingerprintOptions(options));
}

} // namespace qzz::svc
