/**
 * @file
 * Compiled-program artifacts: a lossless, versioned JSON document of
 * a CompiledProgram minus its pulse library.
 *
 * The on-disk tier of the program cache persists one artifact per
 * request fingerprint.  The pulse library itself is NOT serialized —
 * it is calibration data owned by the pulse store (core/pulse_opt.h),
 * addressed by the PulseMethod the artifact records — so loading an
 * artifact re-attaches the shared library for its method.  The
 * document is written with json::Writer (shortest round-trip digits,
 * so every double reads back bit-exactly), its layers and gates with
 * the same encoders as the response's program
 * (core::writeLayerMembers / writeGateMembers), and read back member
 * by member with json::Cursor, which builds no tree: a program loaded
 * from disk is bit-identical to the one that was stored.  The layout
 * is in docs/formats.md.
 */

#ifndef QZZ_SERVICE_ARTIFACT_H
#define QZZ_SERVICE_ARTIFACT_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "core/framework.h"

namespace qzz::svc {

/** Artifact format version (the "qzzprog" member).
 *  v2: adds the calib_epoch field.
 *  v3: a JSON document sharing the response's layer and gate
 *  encoding (v2 was a whitespace-token text format). */
inline constexpr int kArtifactVersion = 3;

/**
 * Largest artifact the disk tier writes or reads.  Above
 * json::kMaxDocumentBytes, the bound on request lines, since a QFT-24
 * artifact is already 4.3 MB; a larger program is served from memory
 * only.
 */
inline constexpr size_t kMaxArtifactBytes = size_t(16) << 20;

/** The artifact document of @p program (without its pulse library);
 *  also the canonical byte-for-byte program identity used by the
 *  bit-identity tests. */
std::string programArtifactString(const core::CompiledProgram &program);

/**
 * The same document written to @p os (when non-null) in pieces of
 * about 64 KiB, so it is never held whole; returns its size in bytes.
 */
uint64_t writeProgramArtifact(const core::CompiledProgram &program,
                              std::ostream *os);

/**
 * Parse an artifact back.  The returned program carries a null
 * library when @p attach_library is false; otherwise the shared
 * calibration library for the recorded PulseMethod is re-attached via
 * getPulseLibraryShared().  Returns nullopt on malformed, oversized
 * or version-mismatched input; at most kMaxArtifactBytes + 1 bytes
 * are read.
 */
std::optional<core::CompiledProgram>
readProgramArtifact(std::istream &is, bool attach_library = true);

/** The calib_epoch an artifact records, reading only the leading
 *  header members; nullopt when they are unreadable or of another
 *  version. */
std::optional<uint64_t> readArtifactCalibEpoch(std::istream &is);

} // namespace qzz::svc

#endif // QZZ_SERVICE_ARTIFACT_H
