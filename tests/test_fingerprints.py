"""The seeded outputs keep their bytes: each output of ``make_fingerprints``
hashes to the SHA-256 digest in ``fingerprints.json``."""

import json

import make_fingerprints


def test_seeded_outputs_match_their_fingerprints():
    fixture = json.loads(make_fingerprints.FIXTURE.read_text(encoding="utf-8"))
    want = fixture["outputs"]
    assert sorted(want) == sorted(make_fingerprints.OUTPUTS)
    changed = [name for name in want if make_fingerprints.digest(name) != want[name]]
    assert not changed, (
        f"outputs whose bytes changed: {', '.join(changed)} "
        f"(fixture made with {fixture['versions']}; running {make_fingerprints.versions()})"
    )
