import random
from fractions import Fraction as F

from cycquart import kernels
from cycquart.form import CyclicParams, eval_form, scaled_coefficients


def rand_params(rng, span=50, den=8):
    return CyclicParams(*(F(rng.randint(-span, span), rng.randint(1, den))
                          for _ in range(4)))


def test_scaled_coefficients_preserve_sign():
    rng = random.Random(73)
    for _ in range(50):
        c = rand_params(rng)
        coeffs = scaled_coefficients(c)
        d = rng.randint(1, 6)
        i = rng.randint(-d, d)
        j = rng.randint(-d, d)
        A, Bk, Bl, Bm, Bn = coeffs
        s4 = d ** 4 + i ** 4 + j ** 4
        s22 = d * d * i * i + i * i * j * j + j * j * d * d
        s211 = d * i * j * (d + i + j)
        s31 = d ** 3 * i + i ** 3 * j + j ** 3 * d
        s13 = d * i ** 3 + i * j ** 3 + j * d ** 3
        val = A * s4 + Bk * s22 + Bl * s211 + Bm * s31 + Bn * s13
        exact = eval_form(c, 1, F(i, d), F(j, d))
        assert (val > 0) == (exact > 0) and (val < 0) == (exact < 0)


def test_python_kernel_matches_direct_evaluation():
    # every face of the witness schedule (1, 2, 3, 4), the falsifier's 32,
    # and the faces 8 and 16 between them
    rng = random.Random(79)
    cases = [rand_params(rng, span=9, den=3) for _ in range(20)]
    cases.append(CyclicParams(F(10 ** 14), F(1), F(1), F(1)))  # exact at a large scale
    # Vasc's form (2, 0, -3, 0), its mirror, and perturbations whose first
    # negative point lies deep in a face, often the last point scanned
    cases += [CyclicParams(*p) for p in (
        (2, 0, -3, 0), (2, 0, 0, -3), (F(199, 100), 0, -3, 0), (2, 0, F(-301, 100), 0),
        (2, F(-1, 100), -3, 0), (F(39, 20), 0, 0, -3),
    )]
    for d in (1, 2, 3, 4, 8, 16, 32):
        order = [(a, b) for a in range(-d, d + 1) for b in range(-d, d + 1)]
        depths = set()
        for c in cases:
            found, i, j, evaluated = kernels.face_scan(scaled_coefficients(c), d)
            depths.add((found, evaluated))
            first_negative = next(
                (idx for idx, (a, b) in enumerate(order)
                 if eval_form(c, 1, F(a, d), F(b, d)) < 0),
                None,
            )
            scanned = len(order) if first_negative is None else first_negative + 1
            assert found == (first_negative is not None), (d, c)
            assert evaluated == scanned, (d, c)
            if found:
                assert (i, j) == order[first_negative], (d, c)
            else:
                assert (i, j) == (0, 0)
        # a full scan, a hit at the first point, and a hit past it
        assert (False, len(order)) in depths and (True, 1) in depths
        assert any(found and evaluated > 1 for found, evaluated in depths)


def test_find_negative_on_faces_verifies_exactly():
    c = CyclicParams(0, 0, -3, 0)
    point, spent = kernels.find_negative_on_faces(c, (1, 2), 10 ** 6)
    assert point is not None
    assert eval_form(c, *point) < 0
    assert spent >= 1

    psd = CyclicParams(2, 0, 0, 0)
    point, _ = kernels.find_negative_on_faces(psd, (1, 2, 4, 8), 10 ** 6)
    assert point is None


def test_faces_are_scanned_and_charged_whole():
    psd = CyclicParams(2, 0, 0, 0)
    # 9 + 25 + 49 + 81: every face charges all (2d + 1)**2 of its points
    assert kernels.find_negative_on_faces(psd, (1, 2, 3, 4), 10 ** 6) == (None, 164)
    # a face begun under budget runs whole: the sweep stops after face 32,
    # the first to end over budget, 9 + 25 + 81 + 289 + 1089 + 4225 points
    assert kernels.find_negative_on_faces(psd, (1, 2, 4, 8, 16, 32, 64, 128), 4000) == (None, 5718)


def test_budget_zero_scans_nothing():
    c = CyclicParams(0, 0, -3, 0)
    point, spent = kernels.find_negative_on_faces(c, (1, 2), 0)
    assert point is None and spent == 0
