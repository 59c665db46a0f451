#include "common/file_util.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/error.hpp"

namespace tl {

void write_file_atomically(const std::string& path, const std::string& text) {
  std::string temp = path + ".tmpXXXXXX";
  int fd = ::mkstemp(temp.data());
  if (fd < 0) {
    throw Error("cannot create a temp file next to '" + path +
                "': " + std::strerror(errno));
  }
  const auto fail = [&](const char* step) {
    const int error = errno;
    if (fd >= 0) ::close(fd);
    ::unlink(temp.c_str());
    throw Error("cannot write '" + path + "' (" + step +
                "): " + std::strerror(error));
  };
  for (std::size_t done = 0; done < text.size();) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) errno = EIO;
    if (n <= 0) fail("write");
    done += static_cast<std::size_t>(n);
  }
  // mkstemp creates the file private (0600); persisted state is shared.
  if (::fchmod(fd, 0644) != 0) fail("chmod");
  if (::fsync(fd) != 0) fail("fsync");
  const int closed = ::close(fd);
  fd = -1;
  if (closed != 0) fail("close");
  if (std::rename(temp.c_str(), path.c_str()) != 0) fail("rename");
}

}  // namespace tl
