#include "dist/worker_pool.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace fsa::dist {

pid_t spawn_worker(const std::vector<std::string>& argv, const std::string& log) {
  if (argv.empty()) throw std::invalid_argument("spawn_worker: empty argv");
  {
    const std::filesystem::path p(log);
    if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  }
  // Everything the child touches is built before fork(): the parent may be
  // multi-threaded, and such a child may only make async-signal-safe calls
  // until exec — no allocation.
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const std::string exec_error = "spawn_worker: execvp " + argv[0] + ": ";

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error(std::string("spawn_worker: fork failed: ") +
                                        std::strerror(errno));
  if (pid > 0) return pid;

  const int fd = ::open(log.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    if (fd > 2) ::close(fd);
  }
  // execvP semantics: a bare command name (self_exe's fallback when
  // /proc/self/exe is unavailable and argv[0] came from PATH) resolves
  // the same way the original invocation did.
  ::execvp(cargv[0], cargv.data());
  const char* why = ::strerrordesc_np(errno);  // a static table: no locale, no lock
  for (const char* part : {exec_error.c_str(), why != nullptr ? why : "unknown error", "\n"})
    if (::write(2, part, std::strlen(part)) < 0) break;
  ::_exit(127);
}

int decode_exit_status(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

std::string self_exe(const char* argv0) {
  std::error_code ec;
  const auto p = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return p.string();
  if (argv0 && *argv0) {
    // A path with a slash is resolved against the cwd now (the children
    // may run elsewhere later); a bare command name is left for the
    // spawn's execvp to resolve against PATH, exactly like the original
    // invocation — absolutizing it against the cwd would fabricate a
    // nonexistent path.
    const std::string a0 = argv0;
    return a0.find('/') == std::string::npos ? a0 : std::filesystem::absolute(a0).string();
  }
  throw std::runtime_error("dist: cannot determine the worker executable path");
}

}  // namespace fsa::dist
