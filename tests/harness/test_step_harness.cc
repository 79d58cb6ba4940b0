// Self-test for the conformance step DSL: the diagnostic contract (a failing
// step prints the full executed script with the failing step highlighted),
// skip-after-failure semantics, and the segment tap's retransmission
// detection.
#include "tests/harness/step_harness.h"

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include "tcp/tcp_variants.h"

namespace muzha {
namespace {

using namespace harness;

// Runs `script` and returns the message of the single non-fatal failure it
// must produce.
template <class Fn>
std::string capture_failure_message(Fn&& script) {
  testing::TestPartResultArray failures;
  {
    testing::ScopedFakeTestPartResultReporter reporter(
        testing::ScopedFakeTestPartResultReporter::
            INTERCEPT_ONLY_CURRENT_THREAD,
        &failures);
    script();
  }
  EXPECT_EQ(failures.size(), 1);
  if (failures.size() != 1) return {};
  EXPECT_EQ(failures.GetTestPartResult(0).type(),
            testing::TestPartResult::kNonFatalFailure);
  return failures.GetTestPartResult(0).message();
}

TEST(StepHarnessDiagnostics, FailingStepPrintsFullExecutedScript) {
  StepHarness<TcpNewReno> h;
  std::string msg = capture_failure_message([&] {
    h << Push{}                    // sends segment 0
      << ExpectSegment{.seq = 0}   //
      << InjectAck{.seq = 0}       // cwnd 1 -> 2
      << ExpectCwnd{999.0};        // deliberately wrong
  });
  // Every executed step appears in the assertion message...
  EXPECT_NE(msg.find("conformance step script failed"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("step 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("Push"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ExpectSegment{seq=0}"), std::string::npos) << msg;
  EXPECT_NE(msg.find("InjectAck{seq=0}"), std::string::npos) << msg;
  // ...the failing one is highlighted with a marker and the reason follows.
  EXPECT_NE(msg.find(">>> step 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ExpectCwnd{999}"), std::string::npos) << msg;
  EXPECT_NE(msg.find("cwnd is 2"), std::string::npos) << msg;
}

TEST(StepHarnessDiagnostics, StepsAfterFailureAreSkipped) {
  StepHarness<TcpNewReno> h;
  (void)capture_failure_message([&] {
    h << Push{} << ExpectCwnd{999.0};
  });
  ASSERT_TRUE(h.recorder().failed());
  std::size_t executed = h.recorder().steps_executed();
  SimTime before = h.sim().now();
  h << Tick{Seconds(5.0)} << ExpectCwnd{0.0};  // must both be skipped
  EXPECT_EQ(h.recorder().steps_executed(), executed);
  EXPECT_EQ(h.sim().now(), before);
}

TEST(StepHarnessDiagnostics, ExpectSegmentReportsMissingSegment) {
  StepHarness<TcpNewReno> h;
  std::string msg = capture_failure_message([&] {
    h << Push{} << ExpectSegment{.seq = 0} << ExpectSegment{.seq = 1};
  });
  EXPECT_NE(msg.find("no segment was sent"), std::string::npos) << msg;
}

TEST(StepHarnessDiagnostics, ExpectNoSegmentListsPendingSegments) {
  StepHarness<TcpNewReno> h;
  std::string msg = capture_failure_message([&] {
    h << Push{} << ExpectNoSegment{};  // segment 0 is pending
  });
  EXPECT_NE(msg.find("1 segment(s) pending"), std::string::npos) << msg;
}

TEST(StepHarnessTap, MarksRetransmissionsBySeqnoReuse) {
  StepHarness<TcpNewReno> h;
  h << Push{}                                       //
    << ExpectSegment{.seq = 0, .is_retx = false}    //
    << ExpectNoSegment{}                            //
    << Tick{Seconds(3.5)}                           // initial RTO is 3 s
    << ExpectRtoBackoff{1}                          //
    << ExpectSegment{.seq = 0, .is_retx = true}     // go-back-N resend
    << ExpectNoSegment{};
}

TEST(StepHarnessTap, DrainSegmentsDiscardsCapturedOutput) {
  TcpConfig cfg;
  cfg.window = 8;
  StepHarness<TcpNewReno> h(cfg);
  h << Push{} << InjectAck{.seq = 0} << InjectAck{.seq = 1}  //
    << DrainSegments{} << ExpectNoSegment{};
}

}  // namespace
}  // namespace muzha
