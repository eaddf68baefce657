import io
import json

import pytest

from currank.sessions import build_contexts
from currank.synth import (
    SynthSpec,
    generate_synthetic,
    write_labels,
    write_session_log,
)


class TestSynthSpec:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SynthSpec(n_sessions=0)
        with pytest.raises(ValueError):
            SynthSpec(n_sessions=10, noise_rate=1.0)

    def test_rejects_vocab_too_small_for_topics(self):
        with pytest.raises(ValueError):
            SynthSpec(n_sessions=10, vocab_size=20, n_topics=10)


class TestGenerateSynthetic:
    def test_deterministic_under_seed(self):
        spec = SynthSpec(n_sessions=20, seed=5)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == b[2]
        # byte-identical serialized output
        bufs = []
        for sessions, documents, labels in (a, b):
            buf = io.StringIO()
            write_session_log(sessions, documents, buf)
            write_labels(labels, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_different_seed_differs(self):
        a = generate_synthetic(SynthSpec(n_sessions=20, seed=5))
        b = generate_synthetic(SynthSpec(n_sessions=20, seed=6))
        assert a[0] != b[0]

    def test_interaction_count(self):
        sessions, _, _ = generate_synthetic(
            SynthSpec(n_sessions=100, queries_per_session=3, seed=1)
        )
        assert sum(len(s.interactions) for s in sessions) == 300

    def test_noise_zero_click_has_max_topic_overlap(self):
        spec = SynthSpec(n_sessions=30, noise_rate=0.0, seed=9)
        sessions, documents, labels = generate_synthetic(spec)
        terms_per_topic = spec.vocab_size // spec.n_topics
        for session in sessions:
            topic = labels[session.session_id]
            topic_terms = {
                f"w{topic * terms_per_topic + j:05d}" for j in range(terms_per_topic)
            }
            for inter in session.interactions:
                overlaps = {
                    d: len(set(documents[d]) & topic_terms)
                    for d in inter.candidate_doc_ids
                }
                for clicked in inter.clicked_doc_ids:
                    others = [v for d, v in overlaps.items() if d != clicked]
                    assert overlaps[clicked] > max(others)

    def test_clicks_subset_of_candidates(self):
        sessions, _, _ = generate_synthetic(SynthSpec(n_sessions=10, seed=2))
        for session in sessions:
            for inter in session.interactions:
                assert inter.clicked_doc_ids <= set(inter.candidate_doc_ids)

    def test_labels_not_on_training_objects(self):
        sessions, documents, _ = generate_synthetic(SynthSpec(n_sessions=5, seed=3))
        for session in sessions:
            assert not hasattr(session, "topic")
        contexts, _ = build_contexts(sessions, documents)
        for ctx in contexts:
            assert not hasattr(ctx, "topic")

    def test_label_sidecar_round_trip(self):
        _, _, labels = generate_synthetic(SynthSpec(n_sessions=12, seed=4))
        buf = io.StringIO()
        write_labels(labels, buf)
        records = map(json.loads, buf.getvalue().splitlines())
        assert {r["session_id"]: r["topic_id"] for r in records} == labels


class TestLogExport:
    def test_generated_log_reingests_identically(self):
        from currank.sessions import parse_sessions

        sessions, documents, _ = generate_synthetic(SynthSpec(n_sessions=15, seed=8))
        buf = io.StringIO()
        write_session_log(sessions, documents, buf)
        parsed_sessions, parsed_documents = parse_sessions(
            io.StringIO(buf.getvalue())
        )
        assert parsed_sessions == sessions
        assert parsed_documents == documents
