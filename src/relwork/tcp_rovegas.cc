#include "relwork/tcp_rovegas.h"

#include "pkt/packet.h"
#include "sim/units.h"
#include "tcp/tcp_vegas.h"

namespace muzha {

void TcpRoVegas::note_ack(const TcpHeader& h) {
  Seconds q = to_seconds(h.qdelay_echo);
  if (!have_epoch_qdelay_ || q < epoch_qdelay_) {
    have_epoch_qdelay_ = true;
    epoch_qdelay_ = q;
  }
}

double TcpRoVegas::compute_diff() const {
  if (!have_epoch_qdelay_) return TcpVegas::compute_diff();
  Seconds base = base_rtt();
  if (base <= Seconds(0.0)) return 0.0;
  return cwnd().value() * epoch_qdelay_.value() /
         (base.value() + epoch_qdelay_.value());
}

void TcpRoVegas::on_epoch_reset() {
  have_epoch_qdelay_ = false;
  epoch_qdelay_ = Seconds(0.0);
}

}  // namespace muzha
