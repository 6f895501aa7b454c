#include "storage/item_catalog.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "util/crc32.h"

namespace bbsmine {

namespace {

constexpr char kMagic[8] = {'B', 'B', 'S', 'C', 'A', 'T', '0', '1'};
constexpr uint32_t kFormatVersion = 1;

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

bool ReadU32(const std::string& in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *pos += 4;
  *v = out;
  return true;
}

}  // namespace

ItemId ItemCatalog::Intern(std::string_view name) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  ItemId id = static_cast<ItemId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

ItemId ItemCatalog::Find(std::string_view name) const {
  auto it = ids_.find(std::string(name));
  return it == ids_.end() ? kNotFound : it->second;
}

Itemset ItemCatalog::InternAll(const std::vector<std::string>& names) {
  Itemset items;
  items.reserve(names.size());
  for (const std::string& name : names) items.push_back(Intern(name));
  Canonicalize(&items);
  return items;
}

std::string ItemCatalog::Render(const Itemset& items) const {
  std::string out = "{";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    if (items[i] < names_.size()) {
      out += names_[items[i]];
    } else {
      out += '#';
      out += std::to_string(items[i]);
    }
  }
  out += "}";
  return out;
}

Status ItemCatalog::Save(const std::string& path) const {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(names_.size()));
  for (const std::string& name : names_) {
    AppendU32(&payload, static_cast<uint32_t>(name.size()));
    payload += name;
  }

  std::string file;
  file.append(kMagic, sizeof(kMagic));
  AppendU32(&file, kFormatVersion);
  AppendU32(&file, Crc32(payload));
  file += payload;

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> fp(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (fp == nullptr) {
    return StatusFromErrno("cannot open for writing: " + path);
  }
  if (std::fwrite(file.data(), 1, file.size(), fp.get()) != file.size()) {
    return Status::IoError("short write: " + path);
  }
  return Status::Ok();
}

Result<ItemCatalog> ItemCatalog::Load(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> fp(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (fp == nullptr) {
    return StatusFromErrno("cannot open for reading: " + path);
  }
  std::string file;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), fp.get())) > 0) {
    file.append(buf, n);
  }
  if (std::ferror(fp.get())) {
    return Status::IoError("read error: " + path);
  }
  if (file.size() < sizeof(kMagic) + 8 ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  size_t pos = sizeof(kMagic);
  uint32_t version = 0;
  uint32_t expected_crc = 0;
  if (!ReadU32(file, &pos, &version) || !ReadU32(file, &pos, &expected_crc)) {
    return Status::Corruption("truncated header in " + path);
  }
  if (version != kFormatVersion) {
    return Status::Corruption("unsupported catalog version " +
                              std::to_string(version));
  }
  if (Crc32(std::string_view(file.data() + pos, file.size() - pos)) !=
      expected_crc) {
    return Status::Corruption("checksum mismatch in " + path);
  }

  ItemCatalog catalog;
  uint32_t count = 0;
  if (!ReadU32(file, &pos, &count)) {
    return Status::Corruption("truncated payload in " + path);
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!ReadU32(file, &pos, &len) || pos + len > file.size()) {
      return Status::Corruption("truncated name in " + path);
    }
    catalog.Intern(std::string_view(file.data() + pos, len));
    pos += len;
  }
  if (catalog.size() != count) {
    return Status::Corruption("duplicate names in " + path);
  }
  return catalog;
}

}  // namespace bbsmine
