#include "core/vft.hpp"

#include <cstdio>

#include "core/node_runtime.hpp"
#include "core/object.hpp"

namespace abcl::core {

Status generic_queue_entry(NodeRuntime& rt, ObjectHeader* o, const MsgView& m) {
  rt.queue_message(o, m);
  return Status::kDone;
}

Status not_understood_entry(NodeRuntime& rt, ObjectHeader* o, const MsgView& m) {
  const char* cls =
      (o->cls() != nullptr) ? o->cls()->name.c_str() : "<fault-chunk>";
  const char* pat = rt.program().patterns().info(m.pattern).name.c_str();
  std::fprintf(stderr, "abclsim: message '%s' not understood by class '%s'\n",
               pat, cls);
  ABCL_CHECK_MSG(false, "message not understood");
  return Status::kDone;
}

Status lazy_init_entry(NodeRuntime& rt, ObjectHeader* o, const MsgView& m) {
  const ClassInfo* cls = o->cls();
  ABCL_CHECK(o->needs_init && cls != nullptr);
  MsgView ctor_view{};
  MsgFrame* args = o->pending_init();
  if (args != nullptr) ctor_view = MsgView::of_frame(*args);
  cls->construct(o->state(), ctor_view);
  if (args != nullptr) {
    rt.free_msg_frame(args);
    o->set_pending_init(nullptr);
  }
  o->needs_init = false;
  o->vftp = &cls->dormant;
  o->mode = Mode::kDormant;
  return cls->dormant.entry(m.pattern)(rt, o, m);
}

Status select_restore_entry(NodeRuntime& rt, ObjectHeader* o, const MsgView& m) {
  const Vft* vft = o->vftp;
  ABCL_DCHECK(vft->wait_site >= 0 && vft->cls != nullptr);
  const WaitSite& ws =
      *vft->cls->wait_sites[static_cast<std::size_t>(vft->wait_site)];
  const WaitSite::Accept* a = ws.find(m.pattern);
  ABCL_CHECK(a != nullptr);
  CtxFrameBase* f = o->blocked_frame();
  ABCL_CHECK(f != nullptr);
  a->copy_in(f, m);
  f->pc = a->resume_pc;
  rt.stats().local_to_waiting_hit += 1;
  // Run the continuation right here (the sender's stack hosts it, exactly
  // like a dormant-object invocation).
  ResumeFn resume = ctx_trailer(f)->resume_entry;
  return resume(rt, o);
}

Vft make_fault_vft(std::size_t npatterns) {
  Vft v;
  v.cls = nullptr;
  v.mode = Mode::kFault;
  v.entries.assign(npatterns, &generic_queue_entry);
  return v;
}

void build_class_vfts(ClassInfo& cls, std::size_t npatterns) {
  ABCL_CHECK(!cls.finalized);
  cls.methods.resize(npatterns);

  cls.dormant.cls = &cls;
  cls.dormant.mode = Mode::kDormant;
  cls.dormant.entries.assign(npatterns, &not_understood_entry);

  cls.active.cls = &cls;
  cls.active.mode = Mode::kActive;
  cls.active.entries.assign(npatterns, &generic_queue_entry);

  cls.lazy_init.cls = &cls;
  cls.lazy_init.mode = Mode::kUninitialized;
  cls.lazy_init.entries.assign(npatterns, &lazy_init_entry);

  for (std::size_t p = 0; p < npatterns; ++p) {
    if (cls.methods[p].body != nullptr) {
      cls.dormant.entries[p] = cls.methods[p].body;
    }
  }

  std::int32_t site_idx = 0;
  for (auto& site_ptr : cls.wait_sites) {
    WaitSite& ws = *site_ptr;
    ws.vft.cls = &cls;
    ws.vft.mode = Mode::kWaiting;
    ws.vft.wait_site = site_idx++;
    ws.vft.entries.assign(npatterns, &generic_queue_entry);
    for (const auto& a : ws.accepts) {
      ABCL_CHECK(a.pattern < npatterns && a.copy_in != nullptr);
      ws.vft.entries[a.pattern] = &select_restore_entry;
    }
  }
  cls.finalized = true;
}

}  // namespace abcl::core
