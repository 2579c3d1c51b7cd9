"""README's quick tour runs, and its `# value` comments are what it computes."""

import ast
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def quick_tour():
    text = README.read_text()
    tour = text[text.index("## Quick tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def shown_value(comment):
    """The value a comment shows: its text up to a run of two spaces."""
    return re.split(r"\s{2,}", comment.strip())[0]


def matches(value, shown):
    if shown.endswith("..."):
        return repr(value).startswith(shown[:-3])
    return shown in (repr(value), str(value))


def test_quick_tour_values():
    source = quick_tour()
    lines = source.splitlines()
    namespace = {}
    checked, wrong = [], []
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], []), str(README), "exec")
        line = lines[stmt.end_lineno - 1]
        if not (isinstance(stmt, ast.Expr) and "#" in line):
            exec(code, namespace)
            continue
        value = eval(ast.get_source_segment(source, stmt.value), namespace)
        shown = shown_value(line.split("#", 1)[1])
        checked.append(shown)
        if not matches(value, shown):
            wrong.append((line, repr(value)))
    assert checked
    assert not wrong
