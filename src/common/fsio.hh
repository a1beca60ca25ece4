/**
 * @file
 * Durable whole-file publishing, the one write primitive behind
 * the sweep engine's file-per-key disk cache.
 *
 * The contract is write-then-publish: bytes are written to a
 * private temp file, fsync'd so they are on the platter, and only
 * then made visible by an atomic rename. A crash at any point
 * leaves the old file or the new one — plus, at worst, a stray
 * temp file no reader opens — never a torn file whose name
 * promises valid content.
 */

#ifndef SIPT_COMMON_FSIO_HH
#define SIPT_COMMON_FSIO_HH

#include <string>
#include <string_view>

namespace sipt::fsio
{

/**
 * Atomically publish @p bytes at @p path: write them to
 * `<path><tmp_suffix>`, fsync the file, rename it over @p path,
 * and fsync the parent directory. Readers of @p path therefore see
 * the old content or the complete new content — never a prefix —
 * even across a crash. False (with the temp file removed) on any
 * failure.
 */
bool atomicPublish(const std::string &path,
                   std::string_view bytes,
                   const std::string &tmp_suffix);

} // namespace sipt::fsio

#endif // SIPT_COMMON_FSIO_HH
