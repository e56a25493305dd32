"""Fuzz the daemon's body decoder: a request or a ``RequestError``, never
anything else.

Bodies are arbitrary JSON objects whose keys mix the request schema's field
names with junk, and whose values mix well-formed field values with
arbitrary JSON.  Decoding needs no server: :func:`decode_request` is the
whole path from a parsed body to a validated request.
"""

from dataclasses import fields

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments import registry
from repro.experiments.schema import RequestError
from repro.server.http import REQUESTS, decode_request
from repro.tensor.kernels import kernel_names

_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=12))
_json = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=2)),
    max_leaves=6)
#: Values a well-formed body would carry, so some bodies decode.
_plausible = st.one_of(
    st.sampled_from(["quick", "full", "gram", "spmv", "uniform", "fig7",
                     "table2", "traffic<=6e4", "tiny-fem"]),
    st.floats(0.0, 1.0), st.integers(-2, 4),
    st.lists(st.floats(0.0, 2.0), max_size=3),
    st.lists(st.sampled_from(kernel_names()), max_size=2),
    st.lists(st.sampled_from(["uniform", "banded:bandwidth=8",
                              "uniform:n=1e400", "rmat"]), max_size=2),
    st.lists(st.sampled_from(["tiny-fem", "tiny-road", "nope"]), max_size=2),
    st.lists(st.sampled_from(registry.names() + ["nope"]), max_size=2),
)


@st.composite
def _requests(draw):
    """``(path, body)``: keys are mostly the path's schema fields, sometimes
    another request's field or junk."""
    path = draw(st.sampled_from(sorted(REQUESTS)))
    own = [spec.name for spec in fields(REQUESTS[path])]
    other = sorted({spec.name for cls in REQUESTS.values()
                    for spec in fields(cls)} - set(own))
    keys = st.one_of(st.sampled_from(own), st.sampled_from(own),
                     st.sampled_from(own), st.sampled_from(other),
                     st.text(max_size=8))
    return path, draw(st.dictionaries(keys, _plausible | _json, max_size=4))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(request=_requests())
def test_decoding_returns_a_request_or_raises_request_error(request):
    path, body = request
    try:
        decoded = decode_request(path, body)
    except RequestError:
        return
    assert isinstance(decoded, REQUESTS[path])
