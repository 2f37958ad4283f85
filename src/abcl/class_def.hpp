// Class registration builder — the user-facing stand-in for the ABCL
// compiler. A class is a plain C++ struct T (the state-variable box) plus
// one *frame type* per method (see core/dispatch.hpp). The builder installs
// the generated entries into the ClassInfo the multiple virtual function
// tables are built from.
//
//   struct Counter { long count = 0; };
//   struct IncFrame : abcl::Frame {
//     static void init(IncFrame&, const abcl::Msg&) {}
//     static abcl::Status run(abcl::Ctx& ctx, Counter& self, IncFrame& f);
//   };
//   ...
//   abcl::ClassDef<Counter> def(prog, "Counter");
//   def.method<IncFrame>(PAT_INC);
//
// Selective reception registers wait sites:
//
//   auto site = def.wait_site<GetFrame>();
//   def.accept<GetFrame, &GetFrame::copy_result>(site, PAT_RESULT, PC_GOT);
#pragma once

#include <string>
#include <type_traits>

#include "core/dispatch.hpp"
#include "core/program.hpp"

namespace abcl {

// Public-API aliases.
using Ctx = core::NodeRuntime;
using Msg = core::MsgView;
using Frame = core::CtxFrameBase;
using Status = core::Status;
using Word = core::Word;
using MailAddr = core::MailAddr;
using ReplyDest = core::ReplyDest;
using NowCall = core::NowCall;
using CreateCall = core::CreateCall;
using PatternId = core::PatternId;
using NodeId = core::NodeId;

template <class T>
class ClassDef {
 public:
  ClassDef(core::Program& prog, std::string name) : prog_(&prog) {
    cls_ = &prog.add_class(std::move(name));
    cls_->state_bytes = sizeof(T);
    cls_->state_align = alignof(T);
    static_assert(alignof(T) <= 16,
                  "object state must fit the 16-byte chunk alignment");
    cls_->construct = [](void* storage, const Msg& ctor_args) {
      T* t = new (storage) T();
      if constexpr (requires(T& x, const Msg& m) { x.on_create(m); }) {
        t->on_create(ctor_args);
      } else {
        (void)ctor_args;
      }
    };
    cls_->destruct = [](void* storage) { static_cast<T*>(storage)->~T(); };
  }

  // Registers FrameT as the method body for pattern `p`.
  template <class FrameT>
  ClassDef& method(PatternId p) {
    auto& methods = cls_->methods;
    if (methods.size() <= p) methods.resize(p + 1);
    ABCL_CHECK_MSG(methods[p].body == nullptr, "duplicate method for pattern");
    methods[p].body = &core::method_entry<T, FrameT>;
    methods[p].resume = &core::resume_frame<T, FrameT>;
    methods[p].arity = prog_->patterns().info(p).arity;
    return *this;
  }

  // Declares a selective-reception site whose blocked frame is FrameT.
  // Returns the site id the method passes to ABCL_SELECT.
  template <class FrameT>
  std::int32_t wait_site() {
    cls_->wait_sites.push_back(std::make_unique<core::WaitSite>());
    return static_cast<std::int32_t>(cls_->wait_sites.size() - 1);
  }

  // Adds an accepted pattern to a wait site. CopyFn lands the message's
  // arguments into the blocked frame; resume_pc is the case label the
  // method continues at.
  template <class FrameT, auto CopyFn>
  ClassDef& accept(std::int32_t site, PatternId p, std::uint16_t resume_pc) {
    ABCL_CHECK(site >= 0 &&
               static_cast<std::size_t>(site) < cls_->wait_sites.size());
    core::WaitSite& ws = *cls_->wait_sites[static_cast<std::size_t>(site)];
    ABCL_CHECK_MSG(ws.find(p) == nullptr, "pattern already accepted at site");
    ws.accepts.push_back(core::WaitSite::Accept{
        p, &copy_trampoline<FrameT, CopyFn>, resume_pc});
    return *this;
  }

  // Opts the class into live migration (remote/migration.hpp). The state
  // box travels as raw words and is never destructed at the old home, so
  // the compile-time contract is: trivially copyable, trivially
  // destructible, and (by author discipline, not checkable here) no
  // node-local resources — pointers to frames, boxes or peer objects'
  // heaps — held in state or blocked frames across a wait site.
  ClassDef& migratable() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "migratable state must be trivially copyable (it ships as "
                  "raw words)");
    static_assert(std::is_trivially_destructible_v<T>,
                  "migratable state must be trivially destructible (the old "
                  "home never runs the destructor after shipping)");
    cls_->migratable = true;
    // The ClassDef ctor installs a destructor call unconditionally; a
    // trivially-destructible T makes it a no-op, and dropping it keeps the
    // shipped-away stale copy from being "destroyed" at node teardown.
    cls_->destruct = nullptr;
    return *this;
  }

  core::ClassInfo& info() { return *cls_; }
  const core::ClassInfo& info() const { return *cls_; }

 private:
  template <class FrameT, auto CopyFn>
  static void copy_trampoline(void* frame, const Msg& m) {
    CopyFn(*static_cast<FrameT*>(frame), m);
  }

  core::Program* prog_;
  core::ClassInfo* cls_;
};

}  // namespace abcl
