/**
 * @file
 * Compiled-program artifacts: a lossless, versioned text round-trip
 * of a CompiledProgram minus its pulse library.
 *
 * The on-disk tier of the program cache persists one artifact per
 * request fingerprint.  The pulse library itself is NOT serialized —
 * it is calibration data owned by the pulse store (core/pulse_opt.h),
 * addressed by the PulseMethod the artifact records — so loading an
 * artifact re-attaches the shared library for its method.  Every
 * double is written with max_digits10 precision, which round-trips
 * IEEE-754 binary64 exactly: a program loaded from disk is
 * bit-identical to the one that was stored.
 */

#ifndef QZZ_SERVICE_ARTIFACT_H
#define QZZ_SERVICE_ARTIFACT_H

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "core/framework.h"

namespace qzz::svc {

/** Artifact format version (stored in the header line).
 *  v2: adds the calib_epoch field — artifacts are versioned by the
 *  calibration-snapshot epoch they were compiled against. */
inline constexpr int kArtifactVersion = 2;

/** Serialize @p program (without its pulse library) to @p os. */
void writeProgramArtifact(const core::CompiledProgram &program,
                          std::ostream &os);

/** writeProgramArtifact() into a string (also the canonical
 *  byte-for-byte program identity used by the bit-identity tests). */
std::string programArtifactString(const core::CompiledProgram &program);

/**
 * Parse an artifact back.  The returned program carries a null
 * library when @p attach_library is false; otherwise the shared
 * calibration library for the recorded PulseMethod is re-attached via
 * getPulseLibraryShared().  Returns nullopt on malformed or
 * version-mismatched input.
 */
std::optional<core::CompiledProgram>
readProgramArtifact(std::istream &is, bool attach_library = true);

/** The calib_epoch an artifact's header records, reading only the
 *  header; 0 when the header is unreadable or of another version. */
uint64_t readArtifactCalibEpoch(std::istream &is);

} // namespace qzz::svc

#endif // QZZ_SERVICE_ARTIFACT_H
