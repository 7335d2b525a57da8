import numpy as np
import pytest

from kawasaki import GeometryError, Torus
from reference import distance, minimal_image


def test_wrap_half_open_interval():
    torus = Torus(1, 20.0)
    x = np.array([-1e-18, 0.0, 19.999999, 20.0, 25.0, -3.0])
    w = torus.wrap(x)
    assert np.all((w >= 0.0) & (w < 20.0))
    assert w[1] == 0.0 and w[3] == 0.0
    assert w[4] == pytest.approx(5.0)
    assert w[5] == pytest.approx(17.0)


def test_minimal_image_range_and_symmetry():
    torus = Torus(2, 10.0)
    rng = np.random.default_rng(0)
    dx = rng.uniform(-30, 30, size=(1000, 2))
    mi = minimal_image(torus, dx)
    assert np.all((mi >= -5.0) & (mi < 5.0))
    assert np.allclose(minimal_image(torus, dx + 10.0), mi)


def test_distance_examples():
    torus = Torus(1, 10.0)
    assert distance(torus, 1.0, 9.5) == pytest.approx(1.5)
    torus2 = Torus(2, 10.0)
    assert distance(torus2, [0.5, 0.5], [9.5, 9.5]) == pytest.approx(np.sqrt(2.0))


def test_require_fits_message_names_rule():
    torus = Torus(1, 10.0)
    torus.require_fits(2.4)
    with pytest.raises(GeometryError, match="minimal-image ambiguity"):
        torus.require_fits(2.5)


def test_constructor_validation():
    with pytest.raises(GeometryError):
        Torus(4, 10.0)
    for side in (0.0, float("inf"), float("nan")):
        with pytest.raises(GeometryError):
            Torus(1, side)


def test_json_round_trip():
    torus = Torus(3, 7.5)
    assert Torus.from_json(torus.to_json()) == torus
