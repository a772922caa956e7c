#include "lang/source.hpp"

namespace sv::lang {

i32 SourceManager::add(std::string name, std::string text) {
  if (const auto it = index_.find(name); it != index_.end()) {
    files_[static_cast<usize>(it->second)].text = std::move(text);
    return it->second;
  }
  const i32 id = static_cast<i32>(files_.size());
  index_.emplace(name, id);
  files_.push_back(SourceFile{std::move(name), std::move(text)});
  return id;
}

const SourceFile &SourceManager::file(i32 id) const {
  SV_CHECK(id >= 0 && static_cast<usize>(id) < files_.size(), "bad file id");
  return files_[static_cast<usize>(id)];
}

std::optional<i32> SourceManager::idOf(std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::string SourceManager::describe(const Location &loc) const {
  if (!loc.valid() || static_cast<usize>(loc.file) >= files_.size())
    return "<unknown>";
  return files_[static_cast<usize>(loc.file)].name + ":" + std::to_string(loc.line) + ":" +
         std::to_string(loc.col);
}

bool isFortranFile(std::string_view file) {
  return file.ends_with(".f90") || file.ends_with(".f95") || file.ends_with(".f03") ||
         file.ends_with(".f");
}

} // namespace sv::lang
