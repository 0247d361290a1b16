"""Every cap refusal names its cap, the required value and a cheaper route."""

import math
import tracemalloc

import pytest

from chaoslab import (
    BlockChoice,
    IndexSet,
    ResourceLimitError,
    SignFunction,
    SpaceSpec,
    averaged_sup_growth,
    chaos_sum,
    clt_sharp,
    distribution_exact,
    evaluate_dyadic,
    gen_sum_set,
    gen_triangle,
    khintchine_check,
    max_density,
    rud_average,
    sign_concentration_check,
)


def singletons(k, c):
    return SignFunction({(j,): c for j in range(1, k + 1)})


# (site, call, (required, budget), a phrase of the cheaper route)
SITES = [
    ("bits_cap.integer", lambda: distribution_exact(singletons(25, 1.0), bits_cap=24),
     (25, 24), "distribution_mc"),
    ("bits_cap.float", lambda: distribution_exact(singletons(25, 0.5), bits_cap=24),
     (25, 24), "distribution_mc"),
    ("hard_cap.integer", lambda: distribution_exact(singletons(27, 1.0), bits_cap=40),
     (27, 26), "distribution_mc"),
    ("hard_cap.float", lambda: distribution_exact(singletons(27, 0.5), bits_cap=40),
     (27, 26), "distribution_mc"),
    ("SignFunction.values", lambda: singletons(27, 1.0).values(), (27, 26), "distribution_mc"),
    ("evaluate_dyadic", lambda: evaluate_dyadic(singletons(3, 1.0), 27), (27, 26),
     "resolution 3"),
    ("IndexSet.to_array", lambda: IndexSet.triangle(3, 400).to_array(),
     (math.comb(400, 3), 5_000_000), "count_block"),
    ("khintchine_check", lambda: khintchine_check([1.0] * 27, 4), (27, 26), "distribution_mc"),
    ("rud_average", lambda: rud_average(gen_triangle(2, 7), space=SpaceSpec.lp(2)),
     (21, 20), "samples="),
    ("averaged_sup_growth", lambda: averaged_sup_growth(2, [10, 21]), (21, 20), "n <= 20"),
    ("clt_sharp", lambda: clt_sharp(gen_sum_set(10), 10, budget=10),
     (len(gen_sum_set(10)) ** 2, 10), "clt_star"),
    ("max_density", lambda: max_density(gen_sum_set(40), 15, 30, "exhaustive"),
     (math.comb(30, 15) ** 3, 1_000_000), "greedy-swap"),
    ("sign_concentration_check",
     lambda: sign_concentration_check(gen_triangle(3, 7), BlockChoice.identity(3, 7)),
     (42, 28), "smaller blocks"),
    ("gen_sum_set", lambda: gen_sum_set(10**6), ((10**6 - 1) ** 2 // 4, 5_000_000), "--max"),
]


@pytest.mark.parametrize("call, pair, route", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_refusal_names_cap_and_route(call, pair, route):
    with pytest.raises(ResourceLimitError) as err:
        call()
    assert (err.value.required, err.value.budget) == pair
    message = str(err.value)
    assert f"{pair[0]} required, cap {pair[1]}" in message
    assert route in message


def test_sum_set_refusal_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            gen_sum_set(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
