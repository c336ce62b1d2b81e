/**
 * @file
 * Compilation-request fingerprinting.
 *
 * A Fingerprint is a stable 128-bit content hash identifying one
 * compilation job: the circuit (as a DAG — invariant under gate-list
 * reorderings that preserve per-qubit order), the device (topology,
 * layout coordinates, per-edge ZZ couplings, coherence and transmon
 * parameters), and the compile options (PulseMethod, SchedPolicy,
 * ZZXSched knobs).  Two requests with equal fingerprints compile to
 * bit-identical CompiledPrograms, which is what makes the fingerprint
 * a sound cache key for the service layer (service/program_cache.h).
 *
 * The hash is content-addressed and versioned: it depends only on the
 * mixed words, never on pointer values, iteration order of hash maps,
 * or platform endianness of the mixing arithmetic (all math is on
 * explicit uint64_t lanes).  Bumping kFingerprintVersion invalidates
 * every persisted artifact at once, mirroring the "v4_" prefix of the
 * pulse calibration store.
 */

#ifndef QZZ_SERVICE_FINGERPRINT_H
#define QZZ_SERVICE_FINGERPRINT_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "circuit/circuit.h"
#include "core/framework.h"
#include "device/device.h"

namespace qzz::svc {

/** Bumped whenever the fingerprinted content or mixing changes.
 *  v2: the device hash covers the full per-qubit calibration
 *  snapshot (per-qubit T1/T2/anharmonicity, per-edge ZZ, epoch)
 *  instead of one uniform DeviceParams tuple. */
inline constexpr uint64_t kFingerprintVersion = 2;

/** A 128-bit content hash. */
struct Fingerprint
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool operator==(const Fingerprint &) const = default;

    /** Lowercase 32-digit hex form, e.g. for artifact file names. */
    std::string hex() const;

    /** Inverse of hex(): exactly 32 lowercase hex digits, else
     *  nullopt (used to parse artifact file names back into keys). */
    static std::optional<Fingerprint> fromHex(std::string_view hex);
};

/** Hasher for unordered containers keyed by Fingerprint. */
struct FingerprintHash
{
    size_t
    operator()(const Fingerprint &fp) const
    {
        // The lanes are already avalanche-mixed; fold them.
        return size_t(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ULL));
    }
};

/**
 * Incremental 128-bit hasher with collision-resistant (non-
 * cryptographic) mixing: every absorbed word is diffused through a
 * SplitMix64-style finalizer and folded into two cross-coupled
 * lanes, so single-bit input differences avalanche across the whole
 * state.  Word count is part of the state, making concatenation
 * ambiguities ("ab" + "c" vs "a" + "bc") distinct.
 */
class FingerprintBuilder
{
  public:
    FingerprintBuilder();

    FingerprintBuilder &mix(uint64_t word);
    FingerprintBuilder &mix(int v) { return mix(uint64_t(int64_t(v))); }
    /** Bit-pattern of @p v, with -0.0 canonicalized to 0.0. */
    FingerprintBuilder &mix(double v);
    /** Length-prefixed bytes of @p s. */
    FingerprintBuilder &mix(std::string_view s);
    /** Fold a sub-fingerprint in (for hierarchical composition). */
    FingerprintBuilder &mix(const Fingerprint &fp);

    /** Finalize (the builder may keep absorbing afterwards). */
    Fingerprint finish() const;

  private:
    uint64_t hi_;
    uint64_t lo_;
    uint64_t count_ = 0;
};

/**
 * Rewrite a circuit into its canonical topological gate order: at
 * every step the schedulable gate with the smallest (kind, qubits,
 * params) key is emitted first.  Gates with equal keys address the
 * same qubits and therefore depend on each other, so the order is
 * well defined and depends only on the DAG — every gate-list
 * ordering that preserves per-qubit program order canonicalizes to
 * the same circuit (register size and name are preserved).
 *
 * The compile service compiles this canonical form: routing and
 * scheduling consume gates in list order, so canonicalizing first is
 * what makes "equal fingerprint => bit-identical CompiledProgram"
 * hold across reordered submissions, not just resubmitted ones.
 */
ckt::QuantumCircuit canonicalGateOrder(const ckt::QuantumCircuit &circuit);

/**
 * Fingerprint of a circuit *as a DAG*: gates are absorbed in the
 * canonicalGateOrder() sequence (plus the register size and name),
 * so any reordering of the gate list that preserves the per-qubit
 * program order hashes identically, while any swap of two dependent
 * gates changes the hash.
 */
Fingerprint fingerprintCircuit(const ckt::QuantumCircuit &circuit);

/**
 * Hash a circuit's gates exactly in list order (no canonicalization
 * pass).  For any circuit c,
 *   fingerprintCircuit(c) == fingerprintOrderedCircuit(canonicalGateOrder(c)),
 * so callers that already hold the canonical form (the compile
 * service canonicalizes once per request) can skip the extra
 * frontier walk.
 */
Fingerprint fingerprintOrderedCircuit(const ckt::QuantumCircuit &circuit);

/**
 * Fingerprint of a device: vertex/edge structure, straight-line
 * coordinates (they fix the planar embedding and hence the
 * suppression solver's cut space), and the full calibration snapshot
 * — per-edge ZZ couplings, per-qubit T1/T2/anharmonicity vectors,
 * the sampling moments, and the snapshot epoch.  The snapshot id is
 * deliberately excluded: it is a provenance label, and the
 * fingerprint must change iff a physical field or the epoch changes,
 * so equal recalibrations relabelled differently still share cached
 * programs while every real drift (or a new epoch over identical
 * numbers) gets its own cache entry.
 */
Fingerprint fingerprintDevice(const dev::Device &device);

/** The calibration component of fingerprintDevice() on its own (no
 *  topology): epoch, sampling moments, per-qubit vectors, per-edge
 *  ZZ.  Excludes Calibration::id (see fingerprintDevice()). */
Fingerprint fingerprintCalibration(const dev::Calibration &calib);

/** Fingerprint of the compile configuration (pulse, sched, zzx). */
Fingerprint fingerprintOptions(const core::CompileOptions &options);

/** The cache key: circuit x device x options (plus the version). */
Fingerprint fingerprintRequest(const ckt::QuantumCircuit &circuit,
                               const dev::Device &device,
                               const core::CompileOptions &options);

/** Compose a request fingerprint from its already-computed parts
 *  (identical to fingerprintRequest(); lets callers that need the
 *  sub-fingerprints anyway avoid hashing the inputs twice). */
Fingerprint composeRequestFingerprint(const Fingerprint &circuit,
                                      const Fingerprint &device,
                                      const Fingerprint &options);

} // namespace qzz::svc

#endif // QZZ_SERVICE_FINGERPRINT_H
