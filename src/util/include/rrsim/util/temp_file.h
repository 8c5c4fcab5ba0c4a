// A uniquely named scratch file for fixtures that must exist by name (SWF
// traces handed to ExperimentConfig::trace_files). Fixed names in the
// shared temp directory race when test processes run in parallel — one
// truncates the file while another reads it — so every fixture gets its
// own mkstemp name instead, and is removed when its owner goes away.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include <unistd.h>

namespace rrsim::util {

/// An empty file `<temp dir>/<stem>-XXXXXX` created with mkstemp, so no
/// two live instances (in any process) share a path. The destructor
/// removes it. Not copyable: exactly one owner deletes the file.
class TempFile {
 public:
  explicit TempFile(const std::string& stem) {
    std::string path =
        (std::filesystem::temp_directory_path() / (stem + "-XXXXXX")).string();
    const int fd = ::mkstemp(path.data());
    if (fd < 0) {
      throw std::runtime_error("TempFile: mkstemp failed for '" + path +
                               "': " + std::strerror(errno));
    }
    ::close(fd);
    path_ = std::move(path);
  }
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace rrsim::util
