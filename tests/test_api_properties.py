"""Property test of the library contract over every public function.

Each function in ``slowmode.__all__`` is called with scalar and count
arguments drawn from pools of edge cases: finite, non-finite, subnormal
and huge floats, non-integral counts and strings.  Structured arguments
(series, operators, sequences) are built valid from small sizes.
Whatever the values, the call must return or raise ValueError; pytest
turns warnings into errors, so a numpy RuntimeWarning fails it too.  The
result records and SelfCheckError are classes, not computations, and are
skipped.
"""

import inspect
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import slowmode

FLOATS = [
    0.0,
    -0.0,
    0.5,
    1.0,
    2.0,
    -1.0,
    1e-3,
    5e-324,
    1e-310,
    2.2250738585072014e-308,
    1e-300,
    1e300,
    1e308,
    1.7976931348623157e308,
    -1e308,
    math.inf,
    -math.inf,
    math.nan,
]
STRINGS = ["", "abc", "0.5", "3", "nan"]
SCALARS = st.sampled_from(FLOATS + STRINGS)
#: Counts: valid sizes kept small (orders <= 40, operators <= 32 moments), then
#: out-of-range, non-integral, non-finite and non-numeric ones.
COUNTS = st.sampled_from(
    [0, 1, 2, 3, 17, 32, 40, -1, 201, 257, 2**63, 2.0, 2.5, 3.9, -0.5, 1e308]
    + [math.inf, -math.inf, math.nan, 5e-324]
    + STRINGS
)

series = st.integers(1, 40).map(slowmode.ce_coefficients)
operators = st.builds(
    slowmode.build_operator,
    st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0]),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.integers(2, 32),
)


@st.composite
def decay_traces(draw):
    """``times`` and ``density`` of an exponential decay, 2..20 samples."""
    size = draw(st.integers(2, 20))
    rate = draw(st.sampled_from([0.0, -0.3, -2.0]))
    times = [0.1 * i for i in range(size)]
    return {"times": times, "density": [math.exp(rate * t) for t in times]}


@st.composite
def comparison_data(draw):
    """``x``, ``exact`` and ``truncations`` on one grid of 1..5 points."""
    size = draw(st.integers(1, 5))
    x = [0.25 * i for i in range(size)]
    orders = draw(st.lists(st.integers(1, 6), max_size=3, unique=True))
    return {
        "x": x,
        "exact": [-v * v for v in x],
        "truncations": {n: tuple((-1.0) ** n * v for v in x) for n in orders},
    }


#: Strategies by parameter name.
PARAMETERS = {
    "n": COUNTS,
    "order": COUNTS,
    "q": COUNTS,
    "k": SCALARS,
    "tau": SCALARS,
    "x": SCALARS,
    "y": SCALARS,
    "t_end": SCALARS,
    "dt": SCALARS,
    "fit_start": SCALARS,
    "gap_threshold": SCALARS,
    "critical_x": SCALARS,
    "essential_rate": SCALARS,
    "hydrodynamic": st.none() | SCALARS | st.sampled_from([-0.2 + 0j, 0.1j]),
    "method": SCALARS | st.sampled_from(["rk4", "expm", "euler"]),
    "series": series,
    "op": operators,
    "x_values": st.lists(SCALARS, max_size=4),
    "k_values": st.lists(SCALARS, max_size=4),
    "orders": st.lists(COUNTS, max_size=3),
    "eigenvalues": st.lists(
        st.sampled_from([0.0, -0.2, -1.0 + 0.5j, -1.0 - 0.5j]), min_size=1, max_size=4
    ),
}
#: Parameters that are only valid together, built at once.
JOINT = {"fit_decay_rate": decay_traces(), "comparison_svg": comparison_data()}

FUNCTIONS = sorted(
    name
    for name in slowmode.__all__
    if callable(value := getattr(slowmode, name)) and not inspect.isclass(value)
)


@st.composite
def calls(draw, name):
    """Keyword arguments for ``name``; optional ones are sometimes left out."""
    kwargs = draw(JOINT[name]) if name in JOINT else {}
    for param in inspect.signature(getattr(slowmode, name)).parameters.values():
        if param.name in kwargs:
            continue
        if param.default is not param.empty and draw(st.booleans()):
            continue
        kwargs[param.name] = draw(PARAMETERS[param.name])
    return kwargs


@pytest.mark.parametrize("name", FUNCTIONS)
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_call_answers_or_refuses(name, data):
    kwargs = data.draw(calls(name), label="kwargs")
    try:
        getattr(slowmode, name)(**kwargs)
    except ValueError:
        pass
