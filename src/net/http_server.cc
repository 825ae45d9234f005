#include "src/net/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/result.h"

namespace chainreaction {

namespace {

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  CHAINRX_CHECK(flags >= 0);
  CHAINRX_CHECK(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    default:
      return "Error";
  }
}

// Blocking write of the whole buffer (the fd is non-blocking; poll for
// writability between short writes). Telemetry pages are tens of KB at
// most, so this finishes in a few syscalls. MSG_NOSIGNAL: a scraper that
// resets the connection mid-response must cost an EPIPE, not a SIGPIPE
// that kills the node.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      if (poll(&p, 1, 1000) <= 0) {
        return false;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace

HttpServer::HttpServer(uint16_t port) {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return;
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 16) != 0) {
    LOG_WARN("http: cannot bind port %u: %s", port, std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  socklen_t len = sizeof(addr);
  CHAINRX_CHECK(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);

  int pipe_fds[2];
  CHAINRX_CHECK(pipe(pipe_fds) == 0);
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);
}

HttpServer::~HttpServer() {
  Stop();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
  }
  if (wake_read_fd_ >= 0) {
    close(wake_read_fd_);
  }
  if (wake_write_fd_ >= 0) {
    close(wake_write_fd_);
  }
}

void HttpServer::Handle(const std::string& prefix, HttpHandler handler) {
  CHAINRX_CHECK(!running_.load());
  handlers_.emplace_back(prefix, std::move(handler));
  // Longest prefix first so Dispatch can take the first match.
  std::sort(handlers_.begin(), handlers_.end(),
            [](const auto& a, const auto& b) { return a.first.size() > b.first.size(); });
}

void HttpServer::Start() {
  if (!ok() || running_.exchange(true)) {
    return;
  }
  thread_ = std::thread([this] { Loop(); });
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  const char byte = 'x';
  [[maybe_unused]] ssize_t n = write(wake_write_fd_, &byte, 1);
  if (thread_.joinable()) {
    thread_.join();
  }
}

HttpResponse HttpServer::NotFound() {
  HttpResponse resp;
  resp.status = 404;
  resp.body = "not found\n";
  return resp;
}

HttpResponse HttpServer::Dispatch(const std::string& path, const std::string& query) const {
  for (const auto& [prefix, handler] : handlers_) {
    if (path.compare(0, prefix.size(), prefix) == 0) {
      return handler(path, query);
    }
  }
  return NotFound();
}

void HttpServer::ServeConnection(int fd) {
  // Read until the end of the request head, bounded in size and time. The
  // connection is served synchronously — acceptable for a telemetry
  // endpoint scraped a few times a second.
  std::string req;
  char buf[2048];
  while (req.size() < 16 * 1024 && req.find("\r\n\r\n") == std::string::npos &&
         req.find("\n\n") == std::string::npos) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      req.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLIN, 0};
      if (poll(&p, 1, 1000) <= 0) {
        break;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    break;  // EOF or error
  }

  HttpResponse resp;
  const size_t line_end = req.find('\n');
  std::string method, target;
  if (line_end != std::string::npos) {
    const std::string line = req.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
      method = line.substr(0, sp1);
      target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    }
  }
  if (method != "GET" || target.empty() || target[0] != '/') {
    resp.status = 400;
    resp.body = "bad request\n";
  } else {
    const size_t q = target.find('?');
    const std::string path = q == std::string::npos ? target : target.substr(0, q);
    const std::string query = q == std::string::npos ? "" : target.substr(q + 1);
    resp = Dispatch(path, query);
  }

  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + ' ' + StatusText(resp.status) +
                    "\r\nContent-Type: " + resp.content_type +
                    "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                    "\r\nConnection: close\r\n\r\n" + resp.body;
  WriteAll(fd, out);
}

void HttpServer::Loop() {
  while (running_.load()) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_read_fd_, POLLIN, 0};
    const int n = poll(fds, 2, 500);
    if (n <= 0) {
      continue;
    }
    if (fds[1].revents != 0) {
      char drain[64];
      while (read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    if ((fds[0].revents & POLLIN) != 0) {
      while (true) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
          break;
        }
        SetNonBlocking(fd);
        ServeConnection(fd);
        close(fd);
      }
    }
  }
}

}  // namespace chainreaction
