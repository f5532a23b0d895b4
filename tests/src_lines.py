"""Count the lines of the package source, split by kind.

Run from anywhere in the repository:

    python tests/src_lines.py

The first line is the total that ``wc -l src/wtw/*.py`` prints.  The table
splits each file's physical lines, read with :mod:`tokenize`, into four kinds
that add up to that total:

* docstring: a line of a string that forms a statement by itself (the module,
  class and function docstrings);
* code: any other line that holds or continues a token, trailing comments
  included;
* comment: a line that holds only a comment;
* blank: a line that holds nothing.

The last line counts the public names, the concepts a reader of the
library meets: the exports of ``wtw.__all__`` and the public members of the
public classes, found by :func:`public_members`, the walk that
``tests/test_surface.py`` checks them with.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wtw"
KINDS = ("code", "docstring", "comment", "blank")
# tokens that mark no content of their own
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def split(path: pathlib.Path) -> dict[str, int]:
    """The number of lines of each kind in one file."""
    with path.open("rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    kind: dict[int, str] = {}
    # the significant tokens, with the statement boundaries a docstring sits between
    significant = [tok for tok in tokens if tok.type not in (tokenize.NL, tokenize.COMMENT)]
    for before, tok, after in zip(significant, significant[1:], significant[2:]):
        if (tok.type == tokenize.STRING and after.type == tokenize.NEWLINE
                and before.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                                    tokenize.ENCODING)):
            for line in range(tok.start[0], tok.end[0] + 1):
                kind[line] = "docstring"
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            kind.setdefault(tok.start[0], "comment")
        elif tok.type not in LAYOUT:
            for line in range(tok.start[0], tok.end[0] + 1):
                if kind.get(line) != "docstring":
                    kind[line] = "code"
    total = len(path.read_bytes().splitlines())
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, total + 1):
        counts[kind.get(line, "blank")] += 1
    return counts


def public_members(tree: ast.AST):
    """``Class.member`` for each public method, property and annotated field
    (a ``NamedTuple`` field) of each public class defined in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{node.name}.{name}"


def public_names() -> tuple[int, int]:
    """The number of exports of ``wtw.__all__`` and of public class members."""
    sys.path.insert(0, str(SRC.parent))
    import wtw

    members = {member for path in SRC.glob("*.py")
               for member in public_members(ast.parse(path.read_text(encoding="utf-8")))}
    return len(wtw.__all__), len(members)


def main() -> None:
    files = sorted(SRC.glob("*.py"))
    rows = [(path.name, split(path)) for path in files]
    totals = {name: sum(counts[name] for _, counts in rows) for name in KINDS}
    print(f"{sum(totals.values())} total (wc -l src/wtw/*.py)")
    print(f"{'file':<20}" + "".join(f"{name:>10}" for name in KINDS))
    for name, counts in (*rows, ("total", totals)):
        print(f"{name:<20}" + "".join(f"{counts[kind]:>10}" for kind in KINDS))
    exports, members = public_names()
    print(f"{exports + members} public names ({exports} exports, {members} class members)")


if __name__ == "__main__":
    main()
