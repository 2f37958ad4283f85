#include "core/program.hpp"

#include "util/assert.hpp"

namespace abcl::core {

ClassInfo& Program::add_class(std::string name) {
  ABCL_CHECK_MSG(!finalized_, "cannot add classes after finalize()");
  ABCL_CHECK_MSG(classes_.size() < 0xFFFe, "too many classes");
  auto cls = std::make_unique<ClassInfo>();
  cls->id = static_cast<ClassId>(classes_.size());
  cls->name = std::move(name);
  classes_.push_back(std::move(cls));
  return *classes_.back();
}

void Program::finalize() {
  ABCL_CHECK(!finalized_);
  patterns_.freeze();
  const std::size_t np = patterns_.size();
  fault_vft_ = make_fault_vft(np);
  for (auto& c : classes_) build_class_vfts(*c, np);
  register_builtin_handlers(*this);
  finalized_ = true;
}

bool Program::has_vft(const Vft* v) const {
  if (v == &fault_vft_) return true;
  for (const auto& c : classes_) {
    if (v == &c->dormant || v == &c->active || v == &c->lazy_init) return true;
    for (const auto& site : c->wait_sites) {
      if (v == &site->vft) return true;
    }
  }
  return false;
}

bool Program::has_resume(ResumeFn r) const {
  if (r == nullptr) return false;
  for (const auto& c : classes_) {
    for (const MethodInfo& m : c->methods) {
      if (m.resume == r) return true;
    }
  }
  return false;
}

}  // namespace abcl::core
