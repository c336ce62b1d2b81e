#include "device/calibration.h"

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <random>
#include <thread>

#include "common/error.h"
#include "common/json.h"
#include "device/device.h"

namespace qzz::dev {

namespace {

/** Positive Gaussian jitter: v * (1 + rel * N(0,1)), truncated into
 *  [0.05 v, 4 v] like the coupling sampler; infinities pass through. */
double
jitterPositive(double v, double rel, Rng &rng)
{
    if (rel <= 0.0 || !std::isfinite(v) || v == 0.0)
        return v;
    // Jitter the magnitude and restore the sign, so negative values
    // (anharmonicity) jitter the same way positive ones do and the
    // truncation bounds always bracket the mean.
    const double mag = std::abs(v);
    const double out = rng.truncatedNormal(mag, rel * mag, 0.05 * mag,
                                           4.0 * mag);
    return std::copysign(out, v);
}

/** Re-impose 1/T_phi = 1/T2 - 1/(2 T1) >= 0 after jittering. */
void
clampPhysicality(std::vector<double> &t1, std::vector<double> &t2)
{
    for (size_t q = 0; q < t1.size(); ++q)
        if (std::isfinite(t2[q]))
            t2[q] = std::min(t2[q], 2.0 * t1[q]);
}

void
requireSize(const std::vector<double> &v, size_t n, const char *what)
{
    require(v.size() == n, [&] {
        return std::string("Calibration: ") + what + " size mismatch";
    });
}

} // namespace

void
Calibration::validate() const
{
    require(num_qubits >= 1, "Calibration: needs at least one qubit");
    const size_t nq = size_t(num_qubits);
    requireSize(t1, nq, "t1");
    requireSize(t2, nq, "t2");
    requireSize(anharmonicity, nq, "anharmonicity");
    require(edge_u.size() == zz.size() && edge_v.size() == zz.size(),
            "Calibration: edge/zz size mismatch");
    require(std::isfinite(coupling_mean) &&
                std::isfinite(coupling_stddev),
            "Calibration: sampling moments must be finite");
    for (size_t q = 0; q < nq; ++q) {
        require(t1[q] > 0.0, "Calibration: T1 must be positive");
        require(t2[q] > 0.0, "Calibration: T2 must be positive");
        // Physicality: 1/T_phi = 1/T2 - 1/(2 T1) must be
        // non-negative.  Infinite T2 means "no dephasing channel"
        // (the historical damping-only regime with finite T1) and is
        // exempt — the simulator clamps its dephasing rate at 0.
        if (std::isfinite(t2[q]))
            require(1.0 / t2[q] - 0.5 / t1[q] > -1e-15,
                    "Calibration: requires T2 <= 2 T1");
        // NaN would serialize as an unreadable token, silently
        // breaking the lossless round trip; infinity is only
        // meaningful for coherence times.
        require(std::isfinite(anharmonicity[q]),
                "Calibration: anharmonicity must be finite");
    }
    for (size_t e = 0; e < zz.size(); ++e) {
        require(edge_u[e] >= 0 && edge_u[e] < num_qubits &&
                    edge_v[e] >= 0 && edge_v[e] < num_qubits,
                "Calibration: edge endpoint out of range");
        require(std::isfinite(zz[e]),
                "Calibration: ZZ strength must be finite");
    }
}

void
Calibration::validateFor(const graph::Topology &topo) const
{
    validate();
    require(num_qubits == topo.g.numVertices(),
            "Calibration: qubit count does not match topology");
    require(numEdges() == topo.g.numEdges(),
            "Calibration: edge count does not match topology");
    for (const graph::Edge &e : topo.g.edges()) {
        require(edge_u[size_t(e.id)] == e.u &&
                    edge_v[size_t(e.id)] == e.v,
                "Calibration: edge list does not match topology");
    }
}

namespace {

Calibration
uniformSkeleton(const graph::Topology &topo, const DeviceParams &params)
{
    Calibration c;
    c.num_qubits = topo.g.numVertices();
    const size_t nq = size_t(c.num_qubits);
    c.t1.assign(nq, params.t1);
    c.t2.assign(nq, params.t2);
    c.anharmonicity.assign(nq, params.anharmonicity);
    c.coupling_mean = params.coupling_mean;
    c.coupling_stddev = params.coupling_stddev;
    for (const graph::Edge &e : topo.g.edges()) {
        c.edge_u.push_back(e.u);
        c.edge_v.push_back(e.v);
    }
    return c;
}

/** The historical Device-constructor coupling sampler, verbatim. */
std::vector<double>
sampleCouplings(const graph::Topology &topo, const DeviceParams &params,
                Rng &rng)
{
    std::vector<double> couplings;
    couplings.reserve(size_t(topo.g.numEdges()));
    for (int e = 0; e < topo.g.numEdges(); ++e) {
        couplings.push_back(rng.truncatedNormal(
            params.coupling_mean, params.coupling_stddev,
            params.coupling_mean * 0.05, params.coupling_mean * 4.0));
    }
    return couplings;
}

} // namespace

Calibration
Calibration::uniform(const graph::Topology &topo,
                     const DeviceParams &params,
                     std::vector<double> couplings)
{
    Calibration c = uniformSkeleton(topo, params);
    c.id = "uniform";
    c.zz = std::move(couplings);
    c.validateFor(topo);
    return c;
}

Calibration
Calibration::sampled(const graph::Topology &topo,
                     const DeviceParams &params, Rng &rng)
{
    Calibration c = uniformSkeleton(topo, params);
    c.id = "sampled";
    c.zz = sampleCouplings(topo, params, rng);
    c.validateFor(topo);
    return c;
}

Calibration
Calibration::jittered(const graph::Topology &topo,
                      const DeviceParams &params,
                      const CalibrationJitter &jitter, Rng &rng)
{
    Calibration c = uniformSkeleton(topo, params);
    c.id = "jittered";
    c.zz = sampleCouplings(topo, params, rng);
    for (double &v : c.t1)
        v = jitterPositive(v, jitter.t1_rel, rng);
    for (double &v : c.t2)
        v = jitterPositive(v, jitter.t2_rel, rng);
    clampPhysicality(c.t1, c.t2);
    for (double &v : c.anharmonicity)
        v = jitterPositive(v, jitter.anharmonicity_rel, rng);
    for (double &v : c.zz)
        v = jitterPositive(v, jitter.zz_rel, rng);
    c.validateFor(topo);
    return c;
}

Calibration
Calibration::drifted(const CalibrationDrift &drift, Rng &rng) const
{
    Calibration c = *this;
    c.epoch = epoch + 1;
    c.id = id + "+drift";
    for (double &v : c.t1)
        v = jitterPositive(v, drift.t1_rel, rng);
    for (double &v : c.t2)
        v = jitterPositive(v, drift.t2_rel, rng);
    clampPhysicality(c.t1, c.t2);
    for (double &v : c.anharmonicity)
        v = jitterPositive(v, drift.anharmonicity_rel, rng);
    for (double &v : c.zz)
        v = jitterPositive(v, drift.zz_rel, rng);
    c.validate();
    return c;
}

Calibration
Calibration::withUniformCoherence(double new_t1, double new_t2) const
{
    require(new_t1 > 0.0 && new_t2 > 0.0,
            "Calibration::withUniformCoherence: bad times");
    require(1.0 / new_t2 - 0.5 / new_t1 > -1e-15,
            "Calibration::withUniformCoherence: requires T2 <= 2 T1");
    Calibration c = *this;
    c.t1.assign(size_t(num_qubits), new_t1);
    c.t2.assign(size_t(num_qubits), new_t2);
    return c;
}

double
Calibration::meanZz() const
{
    if (zz.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : zz)
        sum += v;
    return sum / double(zz.size());
}

// ---------------------------------------------------------------------------
// JSON round trip
// ---------------------------------------------------------------------------

namespace {

/** Every key of the calibration document, in writer order.  Each is
 *  mandatory and unique: a truncated file or a spliced one fails the
 *  read instead of yielding a partial snapshot. */
constexpr const char *kCalibKeys[] = {
    "qzzcalib", "id",     "epoch",         "num_qubits",
    "coupling_mean",      "coupling_stddev",
    "t1",       "t2",     "anharmonicity", "edge_u",
    "edge_v",   "zz",
};
constexpr size_t kNumCalibKeys =
    sizeof(kCalibKeys) / sizeof(kCalibKeys[0]);

/** An array read element by element with @p read; false when it is
 *  no array or an element is bad. */
template <typename T, typename Read>
bool
readArray(json::Cursor &in, std::vector<T> &out, Read read)
{
    out.clear();
    if (!in.beginArray())
        return false;
    while (in.more())
        if (!read(out.emplace_back()))
            return false;
    return in.ok();
}

/** Reads the value of member @p key into @p c; false, with the cursor
 *  failed, when the value is malformed. */
bool
readMember(json::Cursor &in, std::string_view key, Calibration &c)
{
    int64_t n = 0;
    if (key == "qzzcalib")
        return in.integer(n, std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()) &&
               (n == kCalibrationVersion ||
                in.fail("unsupported calibration version " +
                        std::to_string(n)));
    if (key == "id")
        return in.string(c.id);
    if (key == "epoch") {
        const bool ok =
            in.integer(n, 0, std::numeric_limits<int64_t>::max());
        c.epoch = uint64_t(n);
        return ok;
    }
    if (key == "num_qubits") {
        const bool ok = in.integer(n, 0, int64_t(1) << 20);
        c.num_qubits = int(n);
        return ok;
    }
    if (key == "coupling_mean")
        return in.real(c.coupling_mean);
    if (key == "coupling_stddev")
        return in.real(c.coupling_stddev);
    const auto index = [&in](int &x) {
        int64_t v = 0;
        const bool ok = in.integer(v, 0, std::numeric_limits<int>::max());
        x = int(v);
        return ok;
    };
    const auto real = [&in](double &x) { return in.real(x); };
    if (key == "edge_u")
        return readArray(in, c.edge_u, index);
    if (key == "edge_v")
        return readArray(in, c.edge_v, index);
    if (key == "t1")
        return readArray(in, c.t1, real);
    if (key == "t2")
        return readArray(in, c.t2, real);
    if (key == "anharmonicity")
        return readArray(in, c.anharmonicity, real);
    return readArray(in, c.zz, real);
}

} // namespace

std::string
calibrationJsonString(const Calibration &calib)
{
    std::string out;
    json::Writer w(out);
    w.beginObject()
        .field("qzzcalib", kCalibrationVersion)
        .field("id", calib.id)
        .field("epoch", calib.epoch)
        .field("num_qubits", calib.num_qubits)
        .field("coupling_mean", calib.coupling_mean)
        .field("coupling_stddev", calib.coupling_stddev);
    w.key("t1").array(calib.t1);
    w.key("t2").array(calib.t2);
    w.key("anharmonicity").array(calib.anharmonicity);
    w.key("edge_u").array(calib.edge_u);
    w.key("edge_v").array(calib.edge_v);
    w.key("zz").array(calib.zz);
    w.endObject();
    out += '\n';
    return out;
}

void
writeCalibrationJson(const Calibration &calib, std::ostream &os)
{
    os << calibrationJsonString(calib);
}

std::optional<Calibration>
readCalibrationJson(std::string_view text, std::string *error)
{
    json::Cursor in(text, json::kMaxDocumentBytes);
    Calibration c;
    bool seen[kNumCalibKeys] = {};
    std::string key;
    // The member whose value failed to read, named in the error.
    std::string bad;
    // Members in any order.  After a failure member() is false and
    // the checks below are skipped.
    in.beginObject();
    while (in.member(key)) {
        size_t idx = 0;
        while (idx < kNumCalibKeys && key != kCalibKeys[idx])
            ++idx;
        if (idx == kNumCalibKeys) {
            in.fail("unknown key '" + key + "'");
        } else if (seen[idx]) {
            in.fail("duplicate key '" + key + "'");
        } else {
            seen[idx] = true;
            if (!readMember(in, key, c))
                bad = key;
        }
    }
    // The checks of the whole document are positioned at its closing
    // brace, the last token read.
    for (size_t i = 0; i < kNumCalibKeys && in.ok(); ++i)
        if (!seen[i])
            in.fail("missing key '" + std::string(kCalibKeys[i]) + "'");
    if (in.ok()) {
        try {
            c.validate();
        } catch (const std::exception &e) {
            in.fail(e.what());
        }
    }
    if (in.end())
        return c;
    if (error)
        *error = bad.empty() ? in.error()
                             : "bad value for '" + bad + "': " + in.error();
    return std::nullopt;
}

bool
saveCalibrationFile(const Calibration &calib, const std::string &path)
{
    namespace fs = std::filesystem;
    const fs::path target(path);
    std::error_code ec;
    if (target.has_parent_path())
        fs::create_directories(target.parent_path(), ec);

    // Writer-private temp file + rename, mirroring the pulse store:
    // concurrent writers can never leave a torn snapshot behind.
    static const unsigned process_tag = std::random_device{}();
    static std::atomic<unsigned> save_counter{0};
    const auto suffix =
        std::to_string(process_tag) + "." +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id())) +
        "." + std::to_string(save_counter.fetch_add(1));
    const fs::path tmp = target.string() + ".tmp." + suffix;

    bool ok;
    {
        std::ofstream out(tmp);
        if (!out)
            return false;
        writeCalibrationJson(calib, out);
        out.flush();
        ok = out.good();
    }
    if (ok) {
        fs::rename(tmp, target, ec);
        ok = !ec;
    }
    if (!ok)
        fs::remove(tmp, ec);
    return ok;
}

std::optional<Calibration>
loadCalibrationFile(const std::string &path, std::string *error)
{
    const auto fail = [error](std::string why) -> std::optional<Calibration> {
        if (error)
            *error = std::move(why);
        return std::nullopt;
    };
    std::ifstream in(path);
    if (!in)
        return fail("cannot open '" + path + "'");
    const auto text = json::readBounded(in, json::kMaxDocumentBytes);
    // An IO error mid-read would otherwise look like truncation;
    // report it as what it is.
    if (in.bad())
        return fail("read error on '" + path + "'");
    if (!text)
        return fail("'" + path + "' is longer than " +
                    std::to_string(json::kMaxDocumentBytes) + " bytes");
    return readCalibrationJson(*text, error);
}

} // namespace qzz::dev
