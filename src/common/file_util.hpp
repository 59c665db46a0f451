// file_util.hpp — crash-safe file replacement for persisted state (result
// store, plan cache, tuned plans).
#pragma once

#include <string>

namespace tl {

/// Replace `path` with `text` so that a reader (or a restart after a crash)
/// sees either the previous file or the whole new one, never a truncated
/// mix: the text goes to a temp file in the target's directory, is fsync'd,
/// and is then renamed over the target.  Throws tl::Error on failure, after
/// removing the temp file; the previous file is left untouched.
void write_file_atomically(const std::string& path, const std::string& text);

}  // namespace tl
