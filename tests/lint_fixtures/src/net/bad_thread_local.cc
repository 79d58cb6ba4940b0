// Fixture: thread-local-audit fires on every thread_local, wherever it is
// (this file classifies as src/net/, so the static below is model code).
namespace muzha {

struct ScratchBuffer {
  int data[64] = {};
};

ScratchBuffer& scratch() {
  thread_local ScratchBuffer buf;  // expect: thread-local-audit
  return buf;
}

thread_local int g_worker_hint = -1;  // expect: thread-local-audit

ScratchBuffer& shared_scratch() {
  static ScratchBuffer buf;  // expect: mutable-static
  return buf;
}

}  // namespace muzha
