"""The parser's kernel and operand splitters against a reference.

``_split_kernels`` and ``_split_operands`` find kernel regions and
operand boundaries by jumping between the bracket and comma characters
they act on.  The reference versions below walk the text one character
at a time, as the parser once did; both splitters must agree with
them on every registered workload's PTX, on the race-corpus kernels
and on drawn operand lists, and raise the same errors.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ptx import parser
from repro.ptx.errors import PTXSyntaxError
from repro.testing.races import ALL_CASES
from repro.workloads.registry import get_workload, workload_names


def reference_split_operands(text):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def reference_split_kernels(text):
    kernels = []
    pos = 0
    while True:
        m = parser._ENTRY_RE.search(text, pos)
        if not m:
            break
        name = m.group(1)
        depth, i = 1, m.end()
        while i < len(text) and depth:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        if depth:
            raise PTXSyntaxError("unterminated parameter list for %r" % name)
        param_text = text[m.end():i - 1]
        open_idx = text.find("{", i)
        if open_idx < 0:
            raise PTXSyntaxError("missing body for kernel %r" % name)
        depth, j = 1, open_idx + 1
        while j < len(text) and depth:
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
            j += 1
        if depth:
            raise PTXSyntaxError("unterminated body for kernel %r" % name)
        body = text[open_idx + 1:j - 1]
        line_no = text.count("\n", 0, m.start()) + 1
        kernels.append((name, param_text, body, line_no))
        pos = j
    return kernels


def _regions(text):
    return [(r.name, r.param_text, r.body, r.line_no)
            for r in parser._split_kernels(text)]


def _sources():
    for name in workload_names(include_extended=True):
        yield name, get_workload(name, scale=0.05).ptx()
    for case in ALL_CASES:
        yield "races:%s" % case.name, case.ptx


SOURCES = dict(_sources())


def _statement_operands(text):
    """The operand text of every statement in ``text``'s kernels."""
    for region in parser._split_kernels(parser._strip_comments(text)):
        for line in region.body.split("\n"):
            for stmt in line.split(";"):
                parts = stmt.strip().split(None, 1)
                if len(parts) == 2:
                    yield parts[1]


def test_sources_cover_every_workload_and_race_case():
    assert len(workload_names(include_extended=True)) == 18
    assert len(SOURCES) == 18 + len(ALL_CASES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_kernel_regions_match_reference(name):
    text = parser._strip_comments(SOURCES[name])
    assert _regions(text) == reference_split_kernels(text)
    assert _regions(SOURCES[name]) == reference_split_kernels(SOURCES[name])


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_operand_lists_match_reference(name):
    operands = list(_statement_operands(SOURCES[name]))
    assert operands
    for text in operands:
        assert parser._split_operands(text) == \
            reference_split_operands(text), text


_scalars = st.sampled_from(
    ["%r1", "%rd12", "%f3", "%p1", "%tid.x", "4", "-8", "0x10", "1.5",
     "sdata", "LOOP", ""])
_memrefs = st.builds(
    lambda base, off, pad: "[%s%s%s%s]" % (pad, base, off, pad),
    st.sampled_from(["%rd1", "%r2", "sdata", "param_a"]),
    st.sampled_from(["", "+8", "+ 4", "+-16", "+0x20"]),
    st.sampled_from(["", " "]))
_vectors = st.builds(
    lambda regs, trailing: "{%s%s}" % (", ".join(regs),
                                       "," if trailing else ""),
    st.lists(st.sampled_from(["%f1", "%f2", "%r3", "%rd4"]),
             min_size=0, max_size=4),
    st.booleans())
_operand = st.one_of(_scalars, _memrefs, _vectors)
_separator = st.sampled_from([",", ", ", " ,", " , ", ",\t"])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(_operand, _separator), max_size=6),
       st.sampled_from(["", ",", ", ", " ", ",,"]))
def test_drawn_operand_lists_match_reference(pieces, tail):
    text = "".join(op + sep for op, sep in pieces)
    for candidate in (text + tail, text.rstrip(", \t") + tail,
                      " " + text):
        assert parser._split_operands(candidate) == \
            reference_split_operands(candidate)


@pytest.mark.parametrize("text", [
    "", " ", ",", "a,", ",a", "a,,b", "[a,b],c", "{a, b}, [c+4],",
    "a]b,c", "]a,b", "[a,b", "{[,]},x", "a , b , ",
])
def test_edge_operand_lists_match_reference(text):
    assert parser._split_operands(text) == reference_split_operands(text)


GOOD = ".entry k ( .param .u64 a )\n{\n    exit;\n}\n"


@pytest.mark.parametrize("text, message", [
    (".entry k ( .param .u64 a\n{ exit; }",
     "unterminated parameter list for 'k'"),
    (".entry k ( ( .param .u64 a )\n{ exit; }",
     "unterminated parameter list for 'k'"),
    (".entry k ( .param .u64 a )\n",
     "missing body for kernel 'k'"),
    (".entry k ( .param .u64 a )\n{\n    exit;\n",
     "unterminated body for kernel 'k'"),
    (".entry k ( .param .u64 a )\n{ { exit; }",
     "unterminated body for kernel 'k'"),
    (GOOD + ".entry j ( (.param .u32 b) )\n{ ld.global.v2.f32 {%f1, %f2}"
     ", [%rd1];\n",
     "unterminated body for kernel 'j'"),
])
def test_unterminated_regions_raise_the_reference_error(text, message):
    with pytest.raises(PTXSyntaxError) as ref:
        reference_split_kernels(text)
    with pytest.raises(PTXSyntaxError) as new:
        parser._split_kernels(text)
    assert str(new.value) == str(ref.value)
    assert message in str(new.value)


def test_nested_groups_and_line_numbers_match_reference():
    text = GOOD * 2 + ".entry v ( .param .u64 a, (.param .u32 n) )\n{\n" \
        "    ld.global.v2.f32 {%f1, %f2}, [%rd1+8];\n    exit;\n}\n"
    assert _regions(text) == reference_split_kernels(text)
    assert [r[3] for r in _regions(text)] == [1, 5, 9]
