import math
import re
from pathlib import Path

from ratespde.cli import _SECTION_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_as_written(capsys):
    # the block asserts that a full grid solved directly and as a one-term
    # plan price bitwise alike; it ends by printing three prices
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "quick_start"})
    prices = [float(v) for v in capsys.readouterr().out.split()]
    assert len(prices) == 3 and all(math.isfinite(p) and p > 0.0 for p in prices)


def test_config_table_names_exactly_the_grammar_keys():
    # a row with an empty section cell continues the section above; the
    # phis / phi row names two keys
    text = README.read_text(encoding="utf-8")
    rows = text[text.index("| section | key |") :].split("\n\n")[0].splitlines()[2:]
    table: dict[str, list[str]] = {}
    for row in rows:
        section_cell, key_cell = re.split(r"(?<!\\)\|", row)[1:3]
        section = section_cell.strip() or section
        table.setdefault(section, []).extend(re.findall(r"`(\w+)`", key_cell))
    keys = [key for names in table.values() for key in names]
    assert len(keys) == len(set(keys)), "a key appears in two rows"
    assert {s: set(k) for s, k in table.items()} == {s: set(k) for s, k in _SECTION_KEYS.items()}
