// Legacy name for the sender test fixture.
//
// The topology, agent construction and the single ACK-injection path all
// live in tests/harness/sender_fixture.h; the step DSL built on top of it
// lives in tests/harness/step_harness.h. Existing suites keep the
// TcpHarness spelling.
#pragma once

#include "tests/harness/sender_fixture.h"

namespace muzha {

template <class AgentT>
using TcpHarness = harness::SenderFixture<AgentT>;

}  // namespace muzha
