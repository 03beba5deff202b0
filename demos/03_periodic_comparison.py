"""
Racing the trigger against periodic execution
=============================================

The honest baseline for a self-triggered implementation is the fastest
period it might ever need: the lower edge of its own trigger window. Any
period longer than that could miss the envelope from some state, so the
comparison pits the trigger's adaptive schedule against that fixed rate.
The trigger can only stretch its executions further apart, never pack
them tighter.
"""

import numpy as np

from selftrig import design, scheduler, sim

sys_ = design.LinearSystem([[0.0, 1.0], [0.0, 0.0]],
                           [[0.0], [1.0]],
                           [[-1.0, -2.0]])
cert = design.make_certificate(sys_)
result = design.min_inter_execution_time(sys_, cert)
trig = design.choose_trigger(result.tau, delta=0.05, tau_max=1.5)
tables = scheduler.build_tables(sys_, cert, trig)

dist = sim.DisturbanceSpec("zero", 2)
for x0 in ([1.0, -0.5], [3.0, 0.0], [0.1, 2.0]):
    st = sim.run_self_triggered(sys_, cert, tables, dist, x0, 50.0)
    periodic = sim.run_periodic(sys_, cert, dist, x0, 50.0, trig.tau_min)
    lo, mean, hi = st.tau_stats()
    # One execution per hold.
    saved = periodic.holds.size - st.holds.size
    print(f"x0 = {np.array(x0)}: self-triggered {st.holds.size} "
          f"vs periodic {periodic.holds.size} "
          f"({saved} saved, mean tau_k {mean:.3f})")
