import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasimplex import DegenerateSimplexError, Simplex, exact_det, smith_normal_form
from deltasimplex.lattice import mat_mul, row_hermite_form


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
            image = mat_mul(m, [list(r) for r in res.right])
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

    def test_json_roundtrip(self):
        s = Simplex(((0, 0), (3, 1), (1, 2)))
        again = Simplex.from_json_dict(json.loads(json.dumps(s.to_json_dict())))
        assert again == s

    def test_json_rejects_floats(self):
        with pytest.raises(ValueError):
            Simplex.from_json_dict({"vertices": [[0.0], [5]]})

    def test_json_rejects_bools(self):
        with pytest.raises(ValueError):
            Simplex.from_json_dict({"vertices": [[True], [5]]})

    def test_json_accepts_decimal_strings(self):
        s = Simplex.from_json_dict({"vertices": [["0"], ["-5"]]})
        assert s.vertices == ((0,), (-5,))

    @pytest.mark.parametrize("text", ["\u0663", "-\u0663", "\uff13", "1\uff10"])
    def test_json_rejects_non_ascii_digit_strings(self, text):
        with pytest.raises(ValueError):
            Simplex.from_json_dict({"vertices": [[text], ["0"]]})

    def test_json_rejects_extra_keys(self):
        with pytest.raises(ValueError):
            Simplex.from_json_dict({"vertices": [[0], [5]], "color": "red"})
