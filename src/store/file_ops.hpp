// Durable file I/O for every artifact the pipeline persists.
//
// All artifact writes in the library (zoo bundles, campaign checkpoints,
// stage journals) go through these functions instead of raw iostream
// calls, for crash consistency: write_file_atomic follows the write-temp
// -> fsync(file) -> rename -> fsync(parent dir) discipline, so a power
// loss at any instant leaves either the complete previous file or the
// complete new file — never a torn mixture. A plain rename without the two
// fsyncs only protects against process death, not against the page cache
// dying with the machine.
//
// Readers detect damaged bytes through digests (store/digest, the zoo
// manifest, the stage journal); the tests that prove it corrupt files
// directly on disk.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace coloc::store {

bool file_exists(const std::string& path);

/// Whole-file read. Throws coloc::runtime_error when the file cannot be
/// opened or read.
std::string read_file(const std::string& path);

/// read_file() that maps "file absent" to nullopt instead of throwing.
std::optional<std::string> read_file_if_exists(const std::string& path);

/// Durable atomic replacement of `path` with `bytes`:
/// write `path`.tmp, fsync it, rename over `path`, fsync the parent
/// directory. Throws coloc::runtime_error on any I/O failure; on
/// failure `path` still holds its previous content (or stays absent).
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Durable append for write-ahead journals: appends `bytes` with
/// O_APPEND and fsyncs before returning, so a record that this call
/// acknowledged survives a crash. Appends are NOT atomic across
/// crashes — a torn tail line is possible and journal readers must
/// tolerate (ignore) an incomplete final record.
void append_file_durable(const std::string& path, std::string_view bytes);

void remove_file(const std::string& path);

void create_directories(const std::string& path);

/// Directory component of `path` ("." when there is none).
std::string parent_directory(const std::string& path);

}  // namespace coloc::store
