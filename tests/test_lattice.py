import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasimplex import DegenerateSimplexError, Simplex, exact_det, smith_normal_form
from deltasimplex.cli import _load_simplex
from deltasimplex.lattice import _least_entry, row_hermite_form


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """The full product a @ b, the reference the Smith form certificate is checked with."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestExactDet:
    def test_identity(self):
        assert exact_det(identity(4)) == 1

    def test_one_by_one(self):
        assert exact_det([[5]]) == 5

    def test_triangular(self):
        assert exact_det([[1, 0, 0], [0, 1, 0], [2, 3, 5]]) == 5

    def test_singular(self):
        assert exact_det([[1, 2], [2, 4]]) == 0

    def test_sign(self):
        assert exact_det([[0, 1], [1, 0]]) == -1

    def test_transpose_invariance(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            mt = [[m[j][i] for j in range(n)] for i in range(n)]
            assert exact_det(m) == exact_det(mt)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            exact_det([[1, 2]])


@pytest.mark.parametrize("entry", [2.7, "3", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize("elimination", [exact_det, smith_normal_form, row_hermite_form])
def test_eliminations_take_integer_entries_only(elimination, entry):
    """A bool, float or string entry is refused, not truncated or parsed by int()."""
    with pytest.raises(ValueError, match="integer required"):
        elimination([[entry]])


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(identity(3)).diagonal == (1, 1, 1)

    def test_already_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 4]]).diagonal == (2, 4)

    def test_hand_eliminated(self):
        assert smith_normal_form([[1, 0], [3, 5]]).diagonal == (1, 5)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 1], [1, 1]])

    def test_certificate_on_random_matrices(self):
        # 1000 nonsingular matrices, entries in [-9, 9], size <= 6
        rng = random.Random(20260809)
        done = 0
        while done < 1000:
            n = rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            det = exact_det(m)
            if det == 0:
                continue
            res = smith_normal_form(m)
            image = mat_mul(m, res.right)
            assert all(row[j] % s == 0 for row in image for j, s in enumerate(res.diagonal))
            assert all(x > 0 for x in res.diagonal)
            assert all(
                res.diagonal[i + 1] % res.diagonal[i] == 0 for i in range(n - 1)
            )
            prod = 1
            for x in res.diagonal:
                prod *= x
            assert prod == abs(det)
            assert abs(exact_det(res.right)) == 1
            # M @ right @ D^-1 is the inverse of the left transform: unimodular
            inverse_left = [[x // s for x, s in zip(row, res.diagonal)] for row in image]
            assert abs(exact_det(inverse_left)) == 1
            done += 1

    def test_least_entry_equals_the_full_scan(self):
        """The scan stops at the first unit; the full scan over the trailing block is the reference."""

        def full_scan(a, t):
            n = len(a)
            least = min(((abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, n) if a[i][j]), default=None)
            if least is None:
                raise ValueError("matrix is singular")
            return least[1:]

        rng = random.Random(20261019)
        palettes = [[0, 1, -1, 2, -3, 5], [0, 0, 2, -2, 3, -4, 6], [0] * 12 + [1, -2, 3]]
        seen = {"unit": 0, "no unit": 0, "singular": 0, "zero block": 0}
        for _ in range(2000):
            n = rng.randint(1, 7)
            t = rng.randrange(n)
            values = rng.choice(palettes)
            a = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.2:
                a[-1] = [2 * x for x in a[0]]  # singular, the block mostly not zero
            block = [x for row in a[t:] for x in row[t:]]
            if not any(block):
                seen["zero block"] += 1
                for scan in (_least_entry, full_scan):
                    with pytest.raises(ValueError, match="singular"):
                        scan(a, t)
                continue
            seen["unit" if 1 in map(abs, block) else "no unit"] += 1
            seen["singular"] += exact_det(a) == 0
            assert _least_entry(a, t) == full_scan(a, t), (a, t)
        assert min(seen.values()) >= 50, seen

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_divisibility_chain_property(self, m):
        if exact_det(m) == 0:
            return
        diag = smith_normal_form(m).diagonal
        assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))


class TestRowHermiteForm:
    def test_triangularizes(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
            det = exact_det(m)
            if det == 0:
                continue
            h = row_hermite_form(m)
            for i in range(n):
                assert h[i][i] > 0
                assert all(h[i][j] == 0 for j in range(i))
                # entries above each pivot are reduced
                assert all(0 <= h[j][i] < h[i][i] for j in range(i))
            assert exact_det(h) == abs(det)
            # every row of M lies in the row lattice of H: forward substitution leaves nothing
            for row in m:
                rest = list(row)
                for k in range(n):
                    q, r = divmod(rest[k], h[k][k])
                    assert r == 0
                    rest = [x - q * y for x, y in zip(rest, h[k])]
                assert rest == [0] * n


class TestSimplex:
    def test_unit_simplex_volume(self):
        s = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert s.normalized_volume == 1

    def test_segment_volume(self):
        assert Simplex(((0,), (5,))).normalized_volume == 5

    def test_triangular_volume(self):
        s = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 5)))
        assert s.normalized_volume == 5

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSimplexError):
            Simplex(((0, 0), (1, 0), (2, 0)))

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValueError):
            Simplex(((0, 0), (1, 0)))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            Simplex(((0,), (1.5,)))
        with pytest.raises(ValueError):
            Simplex(((0,), (True,)))

    def test_volume_equals_snf_product_of_homogenized(self):
        rng = random.Random(9)
        from conftest import random_simplex

        for _ in range(100):
            s = random_simplex(rng, max_dim=4)
            diag = smith_normal_form(s.homogeneous_matrix()).diagonal
            prod = 1
            for x in diag:
                prod *= x
            assert prod == s.normalized_volume

    # The simplex file format {"vertices": [[int, ...], ...]} is read by the CLI.
    @staticmethod
    def from_file(tmp_path, obj):
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return _load_simplex(path)

    def test_json_roundtrip(self, tmp_path):
        s = Simplex(((0, 0), (3, 1), (1, 2)))
        assert self.from_file(tmp_path, {"vertices": s.vertices}) == s

    def test_json_rejects_floats(self, tmp_path):
        with pytest.raises(ValueError):
            self.from_file(tmp_path, {"vertices": [[0.0], [5]]})

    def test_json_rejects_bools(self, tmp_path):
        with pytest.raises(ValueError):
            self.from_file(tmp_path, {"vertices": [[True], [5]]})

    def test_json_accepts_decimal_strings(self, tmp_path):
        s = self.from_file(tmp_path, {"vertices": [["0"], ["-5"]]})
        assert s.vertices == ((0,), (-5,))

    @pytest.mark.parametrize("text", ["\u0663", "-\u0663", "\uff13", "1\uff10"])
    def test_json_rejects_non_ascii_digit_strings(self, tmp_path, text):
        with pytest.raises(ValueError):
            self.from_file(tmp_path, {"vertices": [[text], ["0"]]})

    def test_json_rejects_extra_keys(self, tmp_path):
        with pytest.raises(ValueError):
            self.from_file(tmp_path, {"vertices": [[0], [5]], "color": "red"})
