#include "common/record_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"

namespace tiera::record_log {

void encode_record(std::uint8_t type, std::string_view key, ByteView value,
                   Bytes& out) {
  const std::size_t start = out.size();
  out.resize(start + kHeaderBytes);
  std::uint8_t* header = out.data() + start;
  const auto key_len = static_cast<std::uint32_t>(key.size());
  const auto value_len = static_cast<std::uint32_t>(value.size());
  header[4] = type;
  std::memcpy(header + 5, &key_len, 4);
  std::memcpy(header + 9, &value_len, 4);
  append(out, key);
  append(out, value);
  const std::uint32_t crc =
      crc32c(ByteView(out.data() + start + 4, out.size() - start - 4));
  std::memcpy(out.data() + start, &crc, 4);
}

bool write_all(int fd, ByteView data) {
  const std::uint8_t* p = data.data();
  std::size_t len = data.size();
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

Status errno_status(std::string_view op) {
  return Status::Internal(std::string(op) + ": " + std::strerror(errno));
}

std::uint64_t replay_buffer(ByteView log, const RecordFn& fn) {
  std::size_t pos = 0;
  while (pos + kHeaderBytes <= log.size()) {
    const std::uint8_t* header = log.data() + pos;
    std::uint32_t crc, key_len, value_len;
    std::memcpy(&crc, header, 4);
    const std::uint8_t type = header[4];
    std::memcpy(&key_len, header + 5, 4);
    std::memcpy(&value_len, header + 9, 4);
    const std::uint64_t end = pos + record_bytes(key_len, value_len);
    // A torn tail, a CRC mismatch and an unknown type all end the log.
    if (end > log.size()) break;
    if (crc32c(ByteView(header + 4, end - pos - 4)) != crc) break;
    if (type != kPut && type != kErase) break;
    const std::uint64_t value_offset = pos + kHeaderBytes + key_len;
    fn(std::string_view(reinterpret_cast<const char*>(header + kHeaderBytes),
                        key_len),
       type == kPut, log.subspan(value_offset, value_len), value_offset);
    pos = end;
  }
  return pos;
}

Result<Bytes> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound(path + ": no such file");
    return errno_status("open " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status error = errno_status("fstat " + path);
    ::close(fd);
    return error;
  }
  Bytes data(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::read(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status error = errno_status("read " + path);
      ::close(fd);
      return error;
    }
    if (n == 0) break;  // shrank since the fstat
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  data.resize(done);
  return data;
}

Result<std::uint64_t> replay_file(const std::string& path,
                                  const RecordFn& fn) {
  Result<Bytes> log = read_file(path);
  if (!log.ok()) {
    if (log.status().code() == StatusCode::kNotFound) return std::uint64_t{0};
    return log.status();
  }
  const std::uint64_t valid = replay_buffer(as_view(*log), fn);
  if (valid < log->size()) {
    TIERA_LOG(kWarn, "log") << "discarding " << (log->size() - valid)
                            << " torn/corrupt bytes at tail of " << path;
    if (::truncate(path.c_str(), static_cast<off_t>(valid)) != 0) {
      return errno_status("truncate " + path);
    }
  }
  return valid;
}

}  // namespace tiera::record_log
