#include "src/net/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace chainreaction {

HttpClientResponse HttpGet(uint16_t port, const std::string& path, int timeout_ms) {
  HttpClientResponse resp;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return resp;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return resp;
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    // MSG_NOSIGNAL: a server that went away is a failed scrape, not SIGPIPE.
    const ssize_t n = send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    close(fd);
    return resp;
  }
  // Read to EOF; the server sends one response then closes.
  std::string raw;
  char buf[4096];
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    const int pr = poll(&p, 1, timeout_ms);
    if (pr <= 0) {
      close(fd);
      return resp;  // timed out or poll error: transport failure
    }
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      raw.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    break;  // EOF (or hard error with a possibly-complete response)
  }
  close(fd);

  // "HTTP/1.1 200 OK\r\n...headers...\r\n\r\nbody"
  if (raw.compare(0, 5, "HTTP/") != 0) {
    return resp;
  }
  const size_t sp = raw.find(' ');
  if (sp == std::string::npos) {
    return resp;
  }
  resp.status = std::atoi(raw.c_str() + sp + 1);
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return resp;
  }
  resp.body = raw.substr(header_end + 4);

  // Verify completeness against Content-Length when the server sent one.
  const std::string headers = raw.substr(0, header_end);
  size_t cl = headers.find("Content-Length:");
  if (cl == std::string::npos) {
    cl = headers.find("content-length:");
  }
  if (cl != std::string::npos) {
    const size_t expected = std::strtoull(headers.c_str() + cl + 15, nullptr, 10);
    if (resp.body.size() < expected) {
      return resp;  // truncated read: not ok
    }
    resp.body.resize(expected);
  }
  resp.ok = true;
  return resp;
}

}  // namespace chainreaction
