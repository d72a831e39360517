"""EventBus topic hygiene: every topic name lives in ``repro.obs.bus``.

PR 5 introduced the bus with string topics; publishers and subscribers
that spell a topic inline can silently drift apart (a publisher typo
means an observer just never fires — no error).  This regression test
enforces the convention that production code only ever names a topic
through the ``bus.py`` constants, and that every constant so used is
registered in :data:`repro.obs.bus.ALL_TOPICS`.
"""

import re
from pathlib import Path

import repro.obs.bus as bus_module
from repro.obs.bus import ALL_TOPICS

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: a bus call whose first argument opens with a quote — an inline topic
_LITERAL_TOPIC = re.compile(
    r"\.(?:publish|subscribe|unsubscribe|has_subscribers|is_subscribed)"
    r"\(\s*[\"']"
)

#: a bus call whose first argument is an identifier (the constant name)
_CONSTANT_TOPIC = re.compile(
    r"\.(?:publish|subscribe|unsubscribe|has_subscribers|is_subscribed)"
    r"\(\s*([A-Za-z_][A-Za-z0-9_]*)"
)

#: identifiers that are bus-call first arguments but not topic names
#: (variables holding a topic that came *from* a constant, or method
#: receivers that happen to match the pattern)
_NON_TOPIC_NAMES = {"topic", "self"}


def _source_files():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    return files


class TestTopicConstants:
    def test_registry_is_complete_and_distinct(self):
        """ALL_TOPICS holds every exported constant, no duplicates."""
        assert len(set(ALL_TOPICS)) == len(ALL_TOPICS)
        exported = {
            name: value for name, value in vars(bus_module).items()
            if name.isupper() and isinstance(value, str)
        }
        assert set(exported.values()) == set(ALL_TOPICS)

    def test_no_string_literal_topics_in_src(self):
        """Production bus calls never inline a topic string."""
        offenders = []
        for path in _source_files():
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if _LITERAL_TOPIC.search(line):
                    offenders.append(f"{path.name}:{lineno}: {line.strip()}")
        assert not offenders, (
            "string-literal bus topics (use the bus.py constants):\n"
            + "\n".join(offenders)
        )

    def test_every_topic_identifier_is_a_registered_constant(self):
        """Publishers and subscribers agree via ALL_TOPICS membership."""
        used = set()
        for path in _source_files():
            for match in _CONSTANT_TOPIC.finditer(path.read_text()):
                used.add(match.group(1))
        used -= _NON_TOPIC_NAMES
        assert used, "expected bus calls in src/"
        unknown = {
            name for name in used
            if getattr(bus_module, name, None) not in ALL_TOPICS
        }
        assert not unknown, (
            f"bus calls use identifiers that are not registered topic "
            f"constants: {sorted(unknown)}"
        )

    def test_liveness_topics_are_registered(self):
        # the two guard facts a flight log records; progress and the
        # pool gauge are not published (liveness is read off the log)
        for name in ("guard_armed", "guard_fired"):
            assert name in ALL_TOPICS
        for name in ("guard_progress", "pool"):
            assert name not in ALL_TOPICS
