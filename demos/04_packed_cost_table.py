"""
Operation counts for the two trigger evaluators
===============================================

The scheduler can evaluate its quadratic forms two ways. The direct route
multiplies each full m x m matrix into the state, m^2 + m multiply-adds
per form, for every grid index from 1 to n_max. The packed route packs the
outer product of the state once, m(m+1)/2 multiplies, then reduces each
symmetric form to a dot product over its m(m+1)/2 distinct entries; the
counter charges a multiply and an add per coefficient and one comparison,
m^2 + m + 1 operations per form, one more than the direct route. It reads
only the window above n_min, though, and skips the prefix up to n_min that
the direct route scans too: the ratios below come from that prefix. Worst
case is a scan of the whole window; the counts below are exact, not
estimates.
"""

import numpy as np

from selftrig import design, scheduler

rng = np.random.default_rng(4)

print(f"{'m':>2} {'window':>7} {'direct':>8} {'packed':>8} {'ratio':>6}")
for m in (1, 2, 3, 4, 6, 8):
    # A stable random closed loop: shift the spectrum left, back out K.
    if m == 1:
        sys_ = design.LinearSystem(0.5, 1.0, -1.5)
    else:
        A = rng.normal(size=(m, m))
        shift = float(np.max(np.real(np.linalg.eigvals(A)))) + 0.5
        a_cl = A - shift * np.eye(m)
        sys_ = design.LinearSystem(A, np.eye(m), a_cl - A)
    cert = design.make_certificate(sys_)
    result = design.min_inter_execution_time(sys_, cert)
    delta = result.tau / 10.5
    trig = design.choose_trigger(result.tau, delta, 26.5 * delta)
    tables = scheduler.build_tables(sys_, cert, trig)

    # Force the full scan from the origin, which never triggers.
    x = np.zeros(m)
    direct = scheduler.next_update(x, tables)
    packed = scheduler.next_update_packed(x, tables)
    q = trig.n_max - trig.n_min
    print(f"{m:>2} {q:>7} {direct.op_count:>8} {packed.op_count:>8} "
          f"{direct.op_count / packed.op_count:>6.2f}")

print()
print("packed worst case is q + (2q+1) m(m+1)/2 operations, q = n_max - n_min:")
print("q comparisons, and m(m+1)/2 multiplies for the monomials plus a")
print("multiply and an add per coefficient of each of the q forms.")
