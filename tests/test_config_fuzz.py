"""Config loader fuzz: any text either loads or raises a ValueError whose
message starts with the file name, and an error about a key's value names
the line that holds the key. The alphabet holds '[', '{' and '"', so text
that starts like JSON, which the loader refuses, is drawn too."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateflow import ExperimentSpec, load_experiment
from gateflow.experiments import _KEYS

KEYS = ("gate", "T", "L", "order", "sine_amplitude", "s_max", "max_rhs_evals")
# Names the loader refuses as unknown keys: removed keys, a wrong name and the empty name.
BAD_KEYS = ("tol", "j_stop", "h_init", "abs_tol", "rel_tol", "h_min", "s_granularity",
            "initial_controls", "slices", "")
# Besides '\n' and '\r' it holds \x0c, \x85 and \u2028, at which str.splitlines()
# breaks a line and an editor does not.
ALPHABET = "cnotswapexT L:#.-+e0123456789_[{}]\"',\n\t\r\x00\x0c\x85\u2028é"
WORDS = ("cnot", "swap", "exact", "inf", "nan", "1e400", "5e-324",
         "true", "1.5", "150", "5", "0", "-1", "")

FUZZ = settings(max_examples=200)  # on top of the conftest profile

native_line = st.one_of(
    st.tuples(st.sampled_from(KEYS + BAD_KEYS),
              st.sampled_from(WORDS) | st.text(ALPHABET, max_size=8))
    .map(lambda kv: f"{kv[0]}: {kv[1]}"),
    st.text(ALPHABET, max_size=16),
)
# A block holding the required keys, so that its other values reach the checks
# of ExperimentSpec and FlowConfig rather than stopping at a missing key.
full_block = (st.lists(native_line, max_size=6)
              .flatmap(lambda extra: st.permutations(["gate: cnot", "T: 5", "L: 150"] + extra))
              .map("\n".join))
native_text = st.one_of(st.text(ALPHABET, max_size=120),
                        st.lists(native_line, max_size=20).map("\n".join), full_block)


def test_keys_are_the_live_config_keys():
    assert sorted(KEYS) == sorted(_KEYS)
    assert not set(BAD_KEYS) & set(_KEYS)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(text=native_text)
def test_native_text_loads_or_names_the_file(fuzz_dir, text):
    path = fuzz_dir / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        specs = load_experiment(path)
    except ValueError as exc:
        assert str(exc).startswith(("fuzz.cfg:", "fuzz.cfg line ")), str(exc)
        located = re.match(r"fuzz\.cfg line (\d+): (\S+) ", str(exc))
        if located and located[2] in KEYS:
            # Lines split as the loader splits them, so the numbers agree.
            line = re.split(r"\r\n?|\n", text)[int(located[1]) - 1]
            assert line.split("#", 1)[0].partition(":")[0].strip() == located[2], str(exc)
    else:
        assert all(isinstance(spec, ExperimentSpec) for spec in specs)
