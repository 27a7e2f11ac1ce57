package ofconn

import "tango/internal/simclock"

// SetClock puts c's measurement clock — Now, Sleep and every round trip's
// RTT — on clk. Set it before the controller is shared; reply deadlines stay
// on socket time.
func SetClock(c *Controller, clk simclock.Clock) { c.clock = clk }
