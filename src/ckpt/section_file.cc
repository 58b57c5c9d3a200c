#include "ckpt/section_file.h"

#include "util/atomic_file.h"
#include "util/crc32.h"

namespace a3cs::ckpt {
namespace {

constexpr char kMagic[4] = {'A', '3', 'C', 'K'};

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

// Cursor over the raw bytes; every read is bounds-checked so a truncated
// file surfaces as CkptError, never as an out-of-range access.
class Cursor {
 public:
  explicit Cursor(const std::string& bytes) : bytes_(bytes) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  const char* take(std::size_t n, const char* what) {
    if (remaining() < n) {
      throw CkptError(std::string("checkpoint truncated reading ") + what);
    }
    const char* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::uint32_t u32(const char* what) {
    const char* p = take(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
    return v;
  }

  std::uint64_t u64(const char* what) {
    const char* p = take(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
    return v;
  }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::ostream& SectionWriter::begin_section(const std::string& name) {
  if (section_open_) {
    throw CkptError("SectionWriter: section '" + open_name_ +
                    "' still open when beginning '" + name + "'");
  }
  open_name_ = name;
  open_stream_.str(std::string());
  open_stream_.clear();
  section_open_ = true;
  return open_stream_;
}

void SectionWriter::end_section() {
  if (!section_open_) throw CkptError("SectionWriter: no open section");
  section_open_ = false;
  add_section(open_name_, open_stream_.str());
}

void SectionWriter::add_section(const std::string& name, std::string payload) {
  for (const Section& s : sections_) {
    if (s.name == name) {
      throw CkptError("SectionWriter: duplicate section '" + name + "'");
    }
  }
  sections_.push_back(Section{name, std::move(payload)});
}

std::string SectionWriter::encode() const {
  if (section_open_) {
    throw CkptError("SectionWriter: encode with section '" + open_name_ +
                    "' still open");
  }
  std::string out;
  out.append(kMagic, 4);
  out.push_back(static_cast<char>(kCkptFormatVersion));
  append_u32(out, static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    append_u32(out, static_cast<std::uint32_t>(s.name.size()));
    out += s.name;
    append_u64(out, static_cast<std::uint64_t>(s.payload.size()));
    append_u32(out, util::crc32(s.payload.data(), s.payload.size()));
    out += s.payload;
  }
  out.push_back(static_cast<char>(healthy_ ? kCkptFlagHealthy : 0));
  append_u32(out, util::crc32(out.data(), out.size()));
  return out;
}

void SectionWriter::write(const std::string& path) const {
  util::atomic_write_file(path, encode());
}

SectionReader::SectionReader(std::string bytes) : total_bytes_(bytes.size()) {
  Cursor cur(bytes);
  const char* magic = cur.take(4, "magic");
  if (std::string(magic, 4) != std::string(kMagic, 4)) {
    throw CkptError("checkpoint: bad magic");
  }
  const unsigned char version =
      static_cast<unsigned char>(*cur.take(1, "version"));
  if (version < kCkptMinFormatVersion || version > kCkptFormatVersion) {
    throw CkptError("checkpoint: unsupported format version " +
                    std::to_string(version) + " (expected " +
                    std::to_string(kCkptMinFormatVersion) + ".." +
                    std::to_string(kCkptFormatVersion) + ")");
  }
  version_ = version;
  // No reserve(count): the count is unverified until the CRCs check out.
  const std::uint32_t count = cur.u32("section count");
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t name_len = cur.u32("section name length");
    const char* name_p = cur.take(name_len, "section name");
    std::string name(name_p, name_len);
    const std::uint64_t payload_len = cur.u64("section payload length");
    const std::uint32_t crc = cur.u32("section crc");
    const char* payload_p =
        cur.take(static_cast<std::size_t>(payload_len), "section payload");
    const std::uint32_t actual =
        util::crc32(payload_p, static_cast<std::size_t>(payload_len));
    if (actual != crc) {
      throw CkptError("checkpoint: CRC mismatch in section '" + name + "'");
    }
    sections_.push_back(
        Section{std::move(name),
                std::string(payload_p, static_cast<std::size_t>(payload_len))});
  }
  if (version >= 2) {
    // v2 trailer: a flags byte (health tag) precedes the whole-file CRC.
    const unsigned char flags =
        static_cast<unsigned char>(*cur.take(1, "trailer flags"));
    healthy_ = (flags & kCkptFlagHealthy) != 0;
  } else {
    healthy_ = true;  // v1 predates the tag; treat as healthy
  }
  const std::size_t body_end = cur.pos();
  const std::uint32_t trailer = cur.u32("trailer crc");
  if (cur.remaining() != 0) {
    throw CkptError("checkpoint: trailing garbage after trailer");
  }
  const std::uint32_t actual = util::crc32(bytes.data(), body_end);
  if (actual != trailer) {
    throw CkptError("checkpoint: whole-file CRC mismatch");
  }
}

SectionReader SectionReader::from_file(const std::string& path) {
  return SectionReader(util::read_file_bytes(path));
}

bool SectionReader::has(const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

const std::string& SectionReader::payload(const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return s.payload;
  }
  throw CkptError("checkpoint: missing section '" + name + "'");
}

std::istringstream SectionReader::stream(const std::string& name) const {
  return std::istringstream(payload(name),
                            std::ios::binary | std::ios::in);
}

std::vector<std::string> SectionReader::section_names() const {
  std::vector<std::string> out;
  out.reserve(sections_.size());
  for (const Section& s : sections_) out.push_back(s.name);
  return out;
}

}  // namespace a3cs::ckpt
