"""Arbitrary JSON into ``bracket``, ``retract`` and ``replay``, through
``cli.main`` in-process: every document ends in exit 0, 1 or 2 with no
traceback, and exit 2 prints exactly one line on stderr.  The documents
are mostly valid matrix and report documents with a few values replaced
or keys dropped, so that most of them get past the JSON reader."""
import contextlib
import copy
import io
import json

from hypothesis import event, given, settings, strategies as st

from affgebra.affine import COMMUTATOR
from affgebra.checks import CATALOGUE, run_check
from affgebra.classes import ClassKind, MatrixClassSpec
from affgebra.cli import main
from affgebra.scalars import QQ

MATRICES = [
    {"field": "Q", "n": 2, "entries": [["1", "-1/2"], ["0", "3"]]},
    {"field": "Qi", "n": 2, "entries": [["1+i", "-1/2i"], ["0", "3"]]},
    {"field": "GF", "p": 7, "n": 2, "entries": [["1", "6"], ["0", "3"]]},
    {"field": "surd", "n": 2, "entries": [["sqrt(2)", "1/2*sqrt(3)"], ["0", "1-sqrt(6)"]]},
    {"field": "surd_c", "n": 1, "entries": [["(sqrt(2))+(1)i"]]},
]


def _failing_report(check, spec):
    # a report whose replay reproduces: one entry of the first input moved by 1
    def mutate(i, inputs):
        name = next(iter(inputs))
        x = inputs[name]
        return {**inputs, name: x.with_entry(0, 0, x.entry(0, 0) + 1)}

    return run_check(check, spec, COMMUTATOR, seed=0, trials=1, mutate=mutate).to_wire()


REPORTS = [
    _failing_report("closure", MatrixClassSpec(ClassKind.GNA, 2, QQ)),
    _failing_report("antisym", MatrixClassSpec(ClassKind.GA_C, 1, QQ, c="-1/2")),
]

# strings and keys that the wire documents use, so that replaced values
# are often of the right kind
WORDS = [
    "", "0", "1", "-1/2", "1/0", "1e5", "1e99999", "i", "1+i", "sqrt(2)", "sqrt(-2)", "(1)+(2)i",
    "Q", "Qi", "GF", "surd", "surd_c", "commutator", "zeta", "P", "U",
    *(kind.value for kind in ClassKind), *CATALOGUE,
]
KEYS = ["field", "p", "n", "entries", "check", "counterexample", "class", "bracket", "kind", "zeta",
        "inputs", "via", "c", "x", "y", "z", "alpha", "a", "b"]

leaves = (
    st.none() | st.booleans() | st.integers(-3, 9) | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(WORDS)
)
values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def near(draw, docs):
    """One of ``docs``, often with up to three values replaced or keys
    dropped."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
            elif draw(st.integers(0, 3)):
                node[key] = draw(values)
                break
            else:
                del node[key]
                break
    return doc


def documents(docs):
    # a document that is not an object or a list is read as a file path
    return st.one_of(near(docs), near(docs), near(docs), values)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


commands = st.one_of(
    st.tuples(st.just("bracket"), documents(MATRICES), documents(MATRICES)),
    st.tuples(st.just("retract"), st.just("-o"), documents(MATRICES), documents(MATRICES), documents(MATRICES)),
    st.tuples(st.just("replay"), documents(REPORTS)),
)


@settings(max_examples=200, deadline=None)
@given(commands)
def test_any_document_ends_in_an_exit_code(argv):
    code, out, err = run(*(a if isinstance(a, str) else json.dumps(a) for a in argv))
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1 and err.startswith("error: ")
    else:
        assert err == ""
        assert out.endswith("\n")
