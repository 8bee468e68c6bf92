"""The exact solver.

``oracle_solve`` is the Gauss-Jordan elimination on field scalars that
the solver ran before it moved to integer rows; the integer solver must
give the same particular solution and directions on random systems and
on every class system.  ``oracle_solve_complex`` solves a system with
complex constants over Q(i) on Q(i) scalars, as the solver once did; the
solver must give its particular solution and its directions v, each
followed by i·v, on the rewrite of the system as two half equations.  ``oracle.plain_row_reduce`` is the elimination
on dense integer rows that ran before the rows became sparse;
``row_reduce`` must return its pivots and its rows.

``tests/golden/solver.json`` holds the CLI output of
``golden_document()`` as computed by that field-scalar solver;
regenerate it only for an intended change of output with

    PYTHONPATH=src:tests python -c "import json, test_solve as t; \
print(json.dumps(t.golden_document(), indent=1))" > tests/golden/solver.json

``tests/golden/class_systems.json`` pins the larger class systems, which
the oracle is too slow for: the sha256 of each ``_sampling_data`` tuple
(dimension, den, particular form, direction generators) of every
``class_specs(n)`` system at n = 8 and n = MAX_N, as the dense integer
elimination computed it.  Regenerate it only for an intended change of
output with

    PYTHONPATH=src:tests python -c "import json, test_solve as t; \
print(json.dumps(t.class_systems_document(), indent=1))" > tests/golden/class_systems.json
"""
import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from affgebra.classes import (
    MAX_N,
    ClassKind,
    MatrixClassSpec,
    _sampling_data,
    constraint_system,
    contains,
    subspace,
)
from affgebra.cli import main
from affgebra.errors import FieldMismatch, Infeasible
from affgebra.matrix import Matrix, matrix_to_wire
from affgebra.scalars import GF, QI, QQ, SURD, GaussianRational
from affgebra.solve import constraint_table, row_reduce, satisfies, solve_affine_system
from affgebra.transforms import _block_generators, _block_table, block_target
from oracle import plain_row_reduce

GOLDEN = Path(__file__).parent / "golden" / "solver.json"
CLASS_SYSTEMS = Path(__file__).parent / "golden" / "class_systems.json"


def row_col_sum_constraints(m, value, h=0):
    out = []
    for l in range(m):
        out.append(({(l, k, h): 1 for k in range(m)}, value))
        out.append(({(k, l, h): 1 for k in range(m)}, value))
    return out


def by_halves(constraints):
    """A system with keys (i, j) and constants over Q(i) as the one
    language's system: each equation once on each half, with that half
    of its constant."""
    out = []
    for coeffs, rhs in constraints:
        rhs = QI.coerce(rhs)
        for h, part in enumerate((rhs.re, rhs.im)):
            out.append(({(i, j, h): c for (i, j), c in coeffs.items()}, part))
    return out


def evaluate(coeffs, mat):
    """The sum of c times half h of entry (i, j) over the keys (i, j, h):
    a rational over Q(i), else a field scalar."""
    if mat.field is QI:
        return sum(Fraction(c) * (mat.entry(i, j).re, mat.entry(i, j).im)[h] for (i, j, h), c in coeffs.items())
    acc = mat.field.zero()
    for (i, j, _), c in coeffs.items():
        acc = acc + mat.field.coerce(c) * mat.entry(i, j)
    return acc


class TestSumSystems:
    def test_zero_sum_direction_count(self):
        # row and column sums zero on 3x3: rank 5, nullity 4
        space = solve_affine_system(row_col_sum_constraints(3, 0), 3, QQ)
        assert space.dimension == 4
        assert space.particular == Matrix(QQ, [[0] * 3] * 3)

    def test_antisymmetric_unit_diagonal(self):
        # sums 1 + unit diagonal + antisymmetry on 3x3 leaves one parameter
        m = 3
        constraints = row_col_sum_constraints(m, 1)
        for k in range(m):
            constraints.append(({(k, k, 0): 1}, 1))
            for l in range(k + 1, m):
                constraints.append(({(k, l, 0): 1, (l, k, 0): 1}, 0))
        space = solve_affine_system(constraints, m, QQ)
        assert space.dimension == 1

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_affine_system([({(0, 0, 0): 1}, 0), ({(0, 0, 0): 1}, 1)], 2, QQ)

    def test_empty_system_is_full_space(self):
        space = solve_affine_system([], 2, QQ)
        assert space.dimension == 4

    def test_over_prime_field(self):
        space = solve_affine_system(row_col_sum_constraints(3, 1), 3, GF(7))
        assert space.dimension == 4
        assert space.particular.field is GF(7)


class TestSolutionProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32))
    def test_particular_and_directions_satisfy(self, seed):
        m = 3
        constraints = row_col_sum_constraints(m, 1)
        space = solve_affine_system(constraints, m, QQ)
        for coeffs, rhs in constraints:
            assert evaluate(coeffs, space.particular) == rhs
            for d in space.directions:
                assert evaluate(coeffs, d) == 0
        rng = random.Random(seed)
        combo = space.particular
        for d in space.directions:
            combo = combo + d.scale(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for coeffs, rhs in constraints:
            assert evaluate(coeffs, combo) == rhs

    def test_dimension_is_unknowns_minus_rank(self):
        # 2(m) sum equations with one dependency: rank 2m-1
        for m in (2, 3, 4):
            space = solve_affine_system(row_col_sum_constraints(m, 0), m, QQ)
            assert space.dimension == m * m - (2 * m - 1)


class TestRealified:
    """Systems on the rational halves of the entries over Q(i) that are
    not complex-linear: anti-hermitian matrices with row sums i."""

    def _anti_hermitian_system(self, m):
        constraints = []
        for l in range(m):
            constraints.append(({(l, k, 0): 1 for k in range(m)}, 0))
            constraints.append(({(l, k, 1): 1 for k in range(m)}, 1))
            constraints.append(({(k, l, 0): 1 for k in range(m)}, 0))
            constraints.append(({(k, l, 1): 1 for k in range(m)}, 1))
        for k in range(m):
            constraints.append(({(k, k, 0): 1}, 0))
            for l in range(k + 1, m):
                constraints.append(({(k, l, 0): 1, (l, k, 0): 1}, 0))
                constraints.append(({(k, l, 1): 1, (l, k, 1): -1}, 0))
        return constraints

    def test_anti_hermitian_sum_i_dimensions(self):
        # real dimension of the direction space is n^2 for ambient n+1
        for n in (1, 2, 3):
            m = n + 1
            space = solve_affine_system(self._anti_hermitian_system(m), m, QI)
            assert space.dimension == n * n

    def test_realified_solution_is_anti_hermitian(self):
        m = 3
        space = solve_affine_system(self._anti_hermitian_system(m), m, QI)
        combos = [space.particular]
        rng = random.Random(11)
        combo = space.particular
        for d in space.directions:
            combo = combo + d.scale(GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 5))))
        combos.append(combo)
        for mat in combos:
            assert mat.dagger() == -mat
            for l in range(m):
                row = sum((mat.entry(l, k) for k in range(m)), start=QI.zero())
                assert row == QI.imaginary_unit()


class TestNarrowedContract:
    def test_surd_fields_are_refused(self):
        with pytest.raises(FieldMismatch):
            solve_affine_system(row_col_sum_constraints(2, 1), 2, SURD)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=lambda f: f.describe())
    def test_imaginary_half_requires_gaussian_field(self, field):
        with pytest.raises(FieldMismatch, match=rf"^key \(0, 0, 1\): {re.escape(field.describe())} has no half 1$"):
            solve_affine_system([({(0, 0, 1): 1}, 1)], 2, field)
        assert solve_affine_system([({(0, 0, 1): 1}, 1)], 2, QI).dimension == 7

    def test_non_real_coefficient_over_gaussian_field_is_refused(self):
        with pytest.raises(FieldMismatch):
            solve_affine_system([({(0, 0, 0): GaussianRational(1, 1)}, 0)], 2, QI)

    @pytest.mark.parametrize("field", [QQ, QI, GF(7)], ids=lambda f: f.describe())
    def test_values_that_are_not_rational_are_refused(self, field):
        # values of other fields, even real ones
        for value in (GaussianRational(1, 1), GaussianRational(1), GF(11).one()):
            with pytest.raises(FieldMismatch):
                solve_affine_system([({(0, 0, 0): value}, 0)], 1, field)
            with pytest.raises(FieldMismatch):
                solve_affine_system([({(0, 0, 0): 1}, value)], 1, field)
        with pytest.raises(FieldMismatch):
            constraint_table([({(0, 0, 0): 1}, GaussianRational(1, 1))], 1)

    def test_table_coefficients_must_be_int(self):
        # satisfies multiplies integer numerators by each coefficient, so
        # (1/3)·2 would not be read as 3 in GF(7)
        with pytest.raises(ValueError, match=r"^key \(0, 0, 0\): coefficient Fraction\(1, 3\) is not an integer$"):
            satisfies(constraint_table([({(0, 0, 0): Fraction(1, 3)}, 3)], 1), [2], 1, 7)
        assert satisfies(constraint_table([({(0, 0, 0): 5}, 3)], 1), [2], 1, 7)  # 5 = 1/3
        for c in (Fraction(2), 2.0, True):  # the key named is the offending one
            with pytest.raises(ValueError, match=rf"^key \(1, 0, 0\): coefficient {re.escape(repr(c))} is not"):
                constraint_table([({(0, 0, 0): 1, (1, 0, 0): c}, 0)], 2)

    def test_fractions_are_read_modulo_p(self):
        # x/2 = 1/3 over GF(7): x = 2/3 = 2·5 = 3
        space = solve_affine_system([({(0, 0, 0): Fraction(1, 2)}, Fraction(1, 3))], 1, GF(7))
        assert space.dimension == 0
        assert space.particular == Matrix(GF(7), [[3]])

    @pytest.mark.parametrize("field", [QQ, QI, GF(7)], ids=lambda f: f.describe())
    def test_empty_equation_holds_iff_its_constant_is_zero(self, field):
        assert solve_affine_system([({}, 0)], 2, field) == solve_affine_system([], 2, field)
        with pytest.raises(Infeasible):
            solve_affine_system([({}, 1)], 2, field)
        p = field.characteristic
        assert constraint_table([({}, 0)], 2) == (((), None, 0, 1),)
        assert satisfies(constraint_table([({}, 0)], 2), [5, 0, 0, 1], 3, p)
        assert not satisfies(constraint_table([({}, Fraction(1, 2))], 2), [0] * 4, 1, p)

    def test_complex_right_hand_side_over_gaussian_field(self):
        # four complex directions, each listed as v and i·v
        c = GaussianRational(Fraction(1, 2), -3)
        constraints = row_col_sum_constraints(3, c.re, 0) + row_col_sum_constraints(3, c.im, 1)
        space = solve_affine_system(constraints, 3, QI)
        assert space.dimension == 8
        for coeffs, rhs in constraints:
            assert evaluate(coeffs, space.particular) == rhs
            for d in space.directions:
                assert evaluate(coeffs, d) == 0


# -- sparse rows against the dense integer elimination (oracle) ------------


def assert_matches_dense(rows, ncols, p):
    """row_reduce on the nonzeros of ``rows`` returns the pivots and, entry
    for entry, the rows of ``plain_row_reduce`` on the dense rows."""
    width = max(map(len, rows), default=ncols)
    dense = [list(row) for row in rows]
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert row_reduce(sparse, ncols, p) == plain_row_reduce(dense, ncols, p)
    assert [[row.get(j, 0) for j in range(width)] for row in sparse] == dense


@st.composite
def integer_rows(draw, p):
    """(rows, ncols): random integer rows (residues over GF(p)), dense or
    mostly zero, wide or tall, with pivots sought in the first ncols
    columns, and some zero rows, duplicate rows and copies that differ
    only after ncols (an inconsistent right-hand side) mixed in.  Rows are
    at least two wide, as every caller's are: the dense elimination takes
    the gcd of a one-entry row as the entry itself, sign included."""
    width = draw(st.integers(2, 9))
    ncols = draw(st.integers(0, width))
    value = st.integers(0, p - 1) if p else st.integers(-9, 9)
    sparse = draw(st.booleans())
    rows = [
        [draw(value) if not sparse or draw(st.integers(0, 3)) == 0 else 0 for _ in range(width)]
        for _ in range(draw(st.integers(0, 8)))
    ]
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if rows and ncols < width and draw(st.booleans()):
        row = list(draw(st.sampled_from(rows)))
        row[ncols:] = [draw(value) for _ in row[ncols:]]
        rows.append(row)
    rows += [[0] * width] * draw(st.integers(0, 2))
    return draw(st.permutations(rows)), ncols


class TestRowReduceAgainstDense:
    @pytest.mark.parametrize("p", [0, 2, 7, 101])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_integer_rows(self, p, data):
        rows, ncols = data.draw(integer_rows(p))
        assert_matches_dense(rows, ncols, p)

    @pytest.mark.parametrize("p", [0, 7])
    def test_edge_cases(self, p):
        assert_matches_dense([], 3, p)
        assert_matches_dense([[0, 0, 0], [0, 0, 0]], 2, p)
        assert_matches_dense([[1, 2, 3], [1, 2, 3], [1, 2, 4]], 2, p)
        assert_matches_dense([[2, 4, 6, 1], [3, 6, 1, 0]], 1, p)
        assert_matches_dense([[0, 5, 3], [0, 1, 1]], 0, p)


# -- the field-scalar solver (oracle) ---------------------------------------


def oracle_eliminate(rows, ncols, scalar):
    """(particular, directions) as vectors of ``scalar`` by Gauss-Jordan
    elimination on rows of ncols coefficients and a constant, pivots
    taken column by column from the first row with a nonzero entry;
    Infeasible when inconsistent."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = scalar.one() / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    if any(row[-1] for row in rows[len(pivots):]):
        raise Infeasible("inconsistent constraint system")

    zero = scalar.zero()
    particular = [zero] * ncols
    for r, c in enumerate(pivots):
        particular[c] = rows[r][-1]
    directions = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [zero] * ncols
        vec[free] = scalar.one()
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][free]
        directions.append(vec)
    return particular, directions


def oracle_solve(constraints, size, field):
    """(particular, directions) by Gauss-Jordan elimination on field
    scalars, with the same unknowns, pivots and free variables as
    ``solve_affine_system``: the halves (i, j, h) of the entries, the
    two halves of an entry adjacent over Q(i), where the scalars are
    rationals; Infeasible when inconsistent."""
    halves, scalar = (2, QQ) if field is QI else (1, field)
    ncols = halves * size * size
    rows = []
    for coeffs, rhs in constraints:
        row = [scalar.zero()] * ncols + [scalar.coerce(rhs)]
        for (i, j, h), c in coeffs.items():
            row[(i * size + j) * halves + h] = scalar.coerce(c)
        rows.append(row)
    particular, directions = oracle_eliminate(rows, ncols, scalar)

    def build(vec):
        if halves == 2:
            vec = [GaussianRational(vec[k], vec[k + 1]) for k in range(0, ncols, 2)]
        return Matrix(field, [vec[i * size : (i + 1) * size] for i in range(size)])

    return build(particular), tuple(build(v) for v in directions)


def oracle_solve_complex(constraints, size):
    """(particular, directions v) of a system over Q(i) with keys (i, j),
    rational coefficients and complex constants, by Gauss-Jordan
    elimination on Q(i) scalars; Infeasible when inconsistent."""
    ncols = size * size
    rows = []
    for coeffs, rhs in constraints:
        row = [QI.zero()] * ncols + [QI.coerce(rhs)]
        for (i, j), c in coeffs.items():
            row[i * size + j] = QI.coerce(c)
        rows.append(row)
    particular, directions = oracle_eliminate(rows, ncols, QI)
    build = lambda vec: Matrix(QI, [vec[i * size : (i + 1) * size] for i in range(size)])  # noqa: E731
    return build(particular), tuple(build(v) for v in directions)


def assert_same_solution(space, particular, directions):
    assert space.particular == particular and space.directions == directions
    wire = lambda mats: [matrix_to_wire(m) for m in mats]  # noqa: E731
    assert wire((space.particular, *space.directions)) == wire((particular, *directions))
    assert space.dimension == len(directions)


def assert_matches_oracle(constraints, size, field):
    try:
        want = oracle_solve(constraints, size, field)
    except Infeasible:
        with pytest.raises(Infeasible):
            solve_affine_system(constraints, size, field)
        return
    assert_same_solution(solve_affine_system(constraints, size, field), *want)


def assert_matches_complex_oracle(constraints, size):
    """The solver on the system's two half equations against the complex
    oracle on the system: its particular solution, and its directions v,
    each followed by i·v."""
    try:
        particular, directions = oracle_solve_complex(constraints, size)
    except Infeasible:
        with pytest.raises(Infeasible):
            solve_affine_system(by_halves(constraints), size, QI)
        return
    i = QI.imaginary_unit()
    both = tuple(w for v in directions for w in (v, v.scale(i)))
    assert_same_solution(solve_affine_system(by_halves(constraints), size, QI), particular, both)


# the field of each system kind the oracle property covers; the complex
# kind has keys (i, j) and constants over Q(i)
SYSTEM_KINDS = {
    "Q": QQ,
    "GF(7)": GF(7),
    "GF(101)": GF(101),
    "Qi": QI,
    "Qi, complex rhs": QI,
}


@st.composite
def sparse_systems(draw, field, complex_rhs=False):
    """A random sparse system on size x size matrices (size 1..4), on the
    halves (i, j, h) of the entries, or with ``complex_rhs`` on the
    entries (i, j) of a complex system; about half the equations hold at
    a hidden point, the rest have a random right-hand side."""
    size = draw(st.integers(1, 4))
    cells = [(i, j) for i in range(size) for j in range(size)]
    halves = 2 if field is QI else 1
    unknowns = cells if complex_rhs else [(i, j, h) for i, j in cells for h in range(halves)]
    if field.characteristic:
        value = st.integers(-12, 12)
        nonzero = value.filter(lambda x: x % field.p)
    else:
        value = st.fractions(-3, 3, max_denominator=4)
        nonzero = value.filter(bool)
    scalar = QI if complex_rhs else field if field.characteristic else QQ
    if scalar is QI:
        entry = st.builds(GaussianRational, value, value)
    else:
        entry = value.map(scalar.coerce)
    point = {u: draw(entry) for u in unknowns}
    constraints = []
    for _ in range(draw(st.integers(1, len(unknowns) + 2))):
        keys = draw(st.lists(st.sampled_from(unknowns), min_size=1, max_size=3, unique=True))
        coeffs = {k: draw(nonzero) for k in keys}
        if draw(st.booleans()):
            rhs = sum((scalar.coerce(c) * point[k] for k, c in coeffs.items()), scalar.zero())
        else:
            rhs = draw(entry)
        constraints.append((coeffs, rhs))
    return size, constraints


class TestAgainstFieldScalarOracle:
    @pytest.mark.parametrize("name", SYSTEM_KINDS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_sparse_systems(self, name, data):
        field = SYSTEM_KINDS[name]
        if name == "Qi, complex rhs":
            size, constraints = data.draw(sparse_systems(field, complex_rhs=True))
            assert_matches_complex_oracle(constraints, size)
        else:
            size, constraints = data.draw(sparse_systems(field))
            assert_matches_oracle(constraints, size, field)

    def test_dependent_and_inconsistent_rows(self):
        rows = row_col_sum_constraints(3, 1)
        for field in (QQ, GF(7), QI):
            assert_matches_oracle(rows + rows[:2], 3, field)
            assert_matches_oracle(rows + [(rows[0][0], 2)], 3, field)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_class_system(self, n):
        for s in class_specs(n):
            assert_matches_oracle(constraint_system(s), s.ambient, s.field)


def class_specs(n):
    """Every class: gna/sna/ga_c over Q, Q(i) and GF(7); ona; una/suna."""
    c = {QQ: Fraction(2, 3), QI: GaussianRational(1, 2), GF(7): 3}
    for field in c:
        for kind in (ClassKind.GNA, ClassKind.SNA, ClassKind.GA_C):
            yield MatrixClassSpec(kind, n, field, c=c[field] if kind is ClassKind.GA_C else None)
    yield MatrixClassSpec(ClassKind.ONA, n, QQ)
    yield MatrixClassSpec(ClassKind.UNA, n, QI)
    yield MatrixClassSpec(ClassKind.SUNA, n, QI)


class TestConstraintTables:
    """Membership runs the solver's equations through ``constraint_table``
    and ``satisfies``; a block algebra has a condition table and a
    generator table, which must agree."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_solved_points_are_members(self, n):
        for s in class_specs(n):
            space = subspace(s)
            assert contains(s, space.particular)
            assert all(contains(s, space.particular + d) for d in space.directions)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_block_generator_meets_the_block_table(self, n):
        for s in class_specs(n):
            target = block_target(s)
            halves = 2 if target.field.is_complex else 1
            table = _block_table(target.block_kind, n, None, halves)
            for gen in _block_generators(target.block_kind, n, halves):
                nums = [0] * (halves * s.ambient**2)
                for k, x in gen:
                    nums[k] = x
                assert satisfies(table, nums, 1, s.field.characteristic)


# -- golden CLI output ------------------------------------------------------


# (class, field flags) of every class, then of the seven wire-workload specs
GOLDEN_CLASSES = [
    (kind, flags)
    for flags in (("--field", "Q"), ("--field", "Qi"), ("--field", "GF", "--p", "7"))
    for kind in ("gna", "sna", "ga_c")
] + [("ona", ()), ("una", ()), ("suna", ())]
GOLDEN_WIRE_SPECS = [
    ("gna", ("--field", "Q")), ("sna", ("--field", "Q")), ("ona", ("--field", "Q")),
    ("una", ("--field", "Qi")), ("suna", ("--field", "Qi")),
    ("gna", ("--field", "GF", "--p", "7")), ("sna", ("--field", "GF", "--p", "101")),
]
GOLDEN_C = {"Q": "2/3", "Qi": "1+2i", "GF": "3"}


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden_document() -> list:
    cases = [(kind, flags, n) for n in range(1, 6) for kind, flags in GOLDEN_CLASSES]
    cases += [(kind, flags, 8) for kind, flags in GOLDEN_WIRE_SPECS]
    out = []
    for kind, flags, n in cases:
        args = ["--class", kind, "--n", str(n), *flags]
        if kind == "ga_c":
            args += ["--c", GOLDEN_C[flags[1]]]
        out.append(_cli("dims", *args))
        out.append(_cli("sample", *args, "--seed", "3", "--count", "2"))
    return out


def test_golden_cli_output_byte_identical():
    expected = GOLDEN.read_text(encoding="utf-8")
    assert json.dumps(golden_document(), indent=1) + "\n" == expected


def class_systems_document() -> list:
    return [
        {"class": s.describe(), "sha256": hashlib.sha256(repr(_sampling_data(s)).encode()).hexdigest()}
        for n in (8, MAX_N)
        for s in class_specs(n)
    ]


def test_large_class_systems_byte_identical():
    expected = CLASS_SYSTEMS.read_text(encoding="utf-8")
    assert json.dumps(class_systems_document(), indent=1) + "\n" == expected
