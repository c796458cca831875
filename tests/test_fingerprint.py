"""Seeded outputs pinned to frozen digests.

``tools/behaviour_fingerprint.py`` digests CLI key, signature, forgery
and evidence files (one forgery swept in forked jobs), experiment
reports, census results and scenario logs.  Every digest below was
frozen from a tree known to be correct, so any change to a seeded output
fails here by name.  A deliberate change re-freezes the affected lines
and says so in CHANGES.md.
"""

import hashlib
import importlib.util
from pathlib import Path

from pofsig import analysis
from pofsig.core import LamportParams, derive_wots_params

TOOL = Path(__file__).resolve().parents[1] / "tools" / "behaviour_fingerprint.py"

FROZEN = {
    "cli.lamport.c0ffee":
        "86f8ccb2b7850be932d210663ec1259d6baaca0bd52acacd31d9eb5cf5ff8f29",
    "cli.wots.c0ffee":
        "09430cc36c72982f7f9b74cd86088dd7b8dc73dcae52bdcee27a9856d1bb8882",
    "cli.lamport.1":
        "792772a161f07c557a0ce8ff3b4ff4e5f427bd043b49f29e08769dbc23f1e8d2",
    "cli.wots.1":
        "7811bfefcbec5d194ab1eefc7e7192429d07082edc4e17edcc9bed2b7dc101b6",
    "cli.lamport.2a":
        "90edf305e18a1e71384a9bd9a01e668ea36d37b270520c48d89d28758995688e",
    "cli.wots.2a":
        "5bdbf9116a679a69f30cfa4a95d056a3e0643515adee83555bd2e895caa5d9a0",
    "cli.lamport.8.c0ffee":
        "f1f8c7c3457d8bab599d22b1ff05747742960f405806f85f1c486463420f10ff",
    "experiment.lamport.42":
        "da249437d930ca3c59892d4a92e7a7979f41b4af3fd40b6b01dc3ae62a96c530",
    "experiment.lamport.7":
        "a83f6007bd65853a1a6b42084673ed8be5e6951d7f561e8fa7cd9fa5363a164a",
    "experiment.wots.42":
        "ac29319dd7749bca1371b08d662fb1abcad6e79d5773338f9dd2c56b182183fb",
    "experiment.wots.7":
        "a1a11d5ff3e57878ce86d74e6ea23cda5521d5568726745f5b0f5ac3061beeb0",
    "experiment.lamport.0.42":
        "ec1d530449c5ad0deac20e44336994f02a0c4a4abed889621a0f4d7486550eab",
    "experiment.lamport.0.7":
        "63ab0d98f5939d21afa511ad011ded08c8bc4ca5ab0da7d158ab9ac68f1dd067",
    "census.8.0":
        "877d21622a9edd21404dd4e613868a48f4b108f93ea73fb206d71c8002ef8ab2",
    "census.8.2":
        "17e1d0d5e04e1d8baa999e8172701d720ef9e8dad0bd52567c0f4977dc3bfe04",
    "scenario.lamport.6.fresh.0":
        "7cce9f5ad7fa5458ef17557ef1ebbcd00e70376ffeb9698898fdc909eab2cb01",
    "scenario.lamport.6.fresh.1":
        "6b56dba6fa93105beb19c135c46eadba8ee047daf70ba9b85e1be58728c4a14c",
    "scenario.lamport.6.fresh.2":
        "b07a73e3d568dde03b44f58fb02d8477fcad7f7767173f98fbf0565278ea7b6d",
    "scenario.lamport.6.fresh.3":
        "c40da23132eb6596bea40a95b135cf78d8a6781da1979a40bba95e6c65f2c979",
    "scenario.lamport.6.fresh.4":
        "0f3674dc47647d0931c827996d37643960e13db89e94305ac67ccc77ec4492f4",
    "scenario.lamport.6.fresh.5":
        "74757fc8edfcdf92d64b1ed33b79e8f8f1fc06d4ff8134a40040b5b6cefd046b",
    "scenario.lamport.6.exact-sk.0":
        "851482fd19831f18319d61017daa744598d3f8d9889a25394225b6e45b043c6a",
    "scenario.lamport.6.exact-sk.1":
        "851482fd19831f18319d61017daa744598d3f8d9889a25394225b6e45b043c6a",
    "scenario.lamport.6.exact-sk.2":
        "851482fd19831f18319d61017daa744598d3f8d9889a25394225b6e45b043c6a",
    "scenario.lamport.6.exact-sk.3":
        "851482fd19831f18319d61017daa744598d3f8d9889a25394225b6e45b043c6a",
    "scenario.lamport.6.exact-sk.4":
        "851482fd19831f18319d61017daa744598d3f8d9889a25394225b6e45b043c6a",
    "scenario.lamport.6.exact-sk.5":
        "851482fd19831f18319d61017daa744598d3f8d9889a25394225b6e45b043c6a",
    "scenario.lamport.0.fresh.0":
        "d07224f148865fb1e7e72fc5487047ba60bf50ba6ff13ee3a30a368bcf0c65c2",
    "scenario.lamport.0.fresh.1":
        "d07224f148865fb1e7e72fc5487047ba60bf50ba6ff13ee3a30a368bcf0c65c2",
    "scenario.lamport.0.fresh.2":
        "d07224f148865fb1e7e72fc5487047ba60bf50ba6ff13ee3a30a368bcf0c65c2",
    "scenario.lamport.0.fresh.3":
        "0421863bb423fdac1372d146794a20773a294b26b58d64037457f0731cfb347a",
    "scenario.lamport.0.fresh.4":
        "d07224f148865fb1e7e72fc5487047ba60bf50ba6ff13ee3a30a368bcf0c65c2",
    "scenario.lamport.0.fresh.5":
        "d07224f148865fb1e7e72fc5487047ba60bf50ba6ff13ee3a30a368bcf0c65c2",
    "scenario.lamport.0.exact-sk.0":
        "851482fd19831f18319d61017daa744598d3f8d9889a25394225b6e45b043c6a",
    "scenario.lamport.0.exact-sk.1":
        "851482fd19831f18319d61017daa744598d3f8d9889a25394225b6e45b043c6a",
    "scenario.lamport.0.exact-sk.2":
        "851482fd19831f18319d61017daa744598d3f8d9889a25394225b6e45b043c6a",
    "scenario.lamport.0.exact-sk.3":
        "851482fd19831f18319d61017daa744598d3f8d9889a25394225b6e45b043c6a",
    "scenario.lamport.0.exact-sk.4":
        "851482fd19831f18319d61017daa744598d3f8d9889a25394225b6e45b043c6a",
    "scenario.lamport.0.exact-sk.5":
        "851482fd19831f18319d61017daa744598d3f8d9889a25394225b6e45b043c6a",
    "scenario.wots.2.fresh.0":
        "1126b08da6ee01ef0e941509bb87958c94cac6052daf8134e79e35b4b8f80e44",
    "scenario.wots.2.fresh.1":
        "214fba13f9fe25a219a7191965a88d6330d7ddfda4fb6a74fa19c84e68806ad1",
    "scenario.wots.2.fresh.2":
        "7acc68b6fadb4c834c545d3ef6b7cbef64c5f2383ba4bb6ba61d918f5ca6cf7e",
    "scenario.wots.2.fresh.3":
        "0036abe0ec068f1499feac45626cc1ae90dafe1d110a80d07cb658d6fe300aa4",
    "scenario.wots.2.fresh.4":
        "c8a1385879bf5c88094438e1c49a04c0f5be8fc31481fc1c72d0f45d4db3cc17",
    "scenario.wots.2.fresh.5":
        "e6425f8de61f87d6d52668dcff2233742c797f9b7bf2229d531fddf809ec0c6e",
    "scenario.wots.2.exact-sk.0":
        "c5b3dd9c8996307f896c5d43e9fc0ba794280e30d3fc7f16642f0f750e6290b8",
    "scenario.wots.2.exact-sk.1":
        "c5b3dd9c8996307f896c5d43e9fc0ba794280e30d3fc7f16642f0f750e6290b8",
    "scenario.wots.2.exact-sk.2":
        "c5b3dd9c8996307f896c5d43e9fc0ba794280e30d3fc7f16642f0f750e6290b8",
    "scenario.wots.2.exact-sk.3":
        "c5b3dd9c8996307f896c5d43e9fc0ba794280e30d3fc7f16642f0f750e6290b8",
    "scenario.wots.2.exact-sk.4":
        "c5b3dd9c8996307f896c5d43e9fc0ba794280e30d3fc7f16642f0f750e6290b8",
    "scenario.wots.2.exact-sk.5":
        "c5b3dd9c8996307f896c5d43e9fc0ba794280e30d3fc7f16642f0f750e6290b8",
}
FROZEN_ALL = "7cd9280013643938edfdc58096631fbe42e839a19a2cff4b086c3df46c1d4adc"


def _load_tool():
    spec = importlib.util.spec_from_file_location("behaviour_fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seeded_outputs_match_frozen_digests():
    tool = _load_tool()
    total = hashlib.sha256()
    seen = []
    for name, text in tool.outputs():
        digest = tool._digest(text)
        assert digest == FROZEN.get(name), name
        total.update(f"{name} {digest}\n".encode())
        seen.append(name)
    assert seen == list(FROZEN)
    assert total.hexdigest() == FROZEN_ALL


# The text and CSV renderings of four of the fingerprint's experiments: the
# fingerprint digests their repr, so these pin what `pofsig experiment`
# prints, line for line.
REPORTS = {
    ("lamport", 0x2A): "2c845957cdc2be2de6b8f98099e81b3f5c5dea08f2f02263b4a26e05e00fe6b7",
    ("lamport", 7): "4c08f12fb61116413507c837641284a80e0531e37011803d29c9f8859e967677",
    ("wots", 0x2A): "efdc613daddc6838c37ea9509f6ced695227efc3352672e1f2b094a217be8be7",
    ("wots", 7): "2b54457078595c87f4b1f4ea2a08e5bd574fdee84b2d24293054247202b9607f",
}


def test_report_text_and_csv_match_frozen_digests():
    params = {"lamport": (LamportParams(8, 6), 3000), "wots": (derive_wots_params(6, 2, 4, 2), 60)}
    for (scheme, seed), frozen in REPORTS.items():
        p, trials = params[scheme]
        r = analysis.run_fda_experiment(analysis.ExperimentConfig(scheme, p, trials, seed))
        text = "\n".join([analysis.report_text(r), analysis.CSV_HEADER, analysis.csv_row(r), ""])
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == frozen, (scheme, seed)


# The fingerprint's 36 scenario digests include the log's repr, which
# names classes; this pins what `scenario_text` prints, by itself.
SCENARIO_TEXT = "b96fbd14302b6e242278e004ec0482d6b9b9099817607b372eb879390c43c031"


def test_scenario_text_matches_frozen_digest():
    total = hashlib.sha256()
    for params in (LamportParams(8, 6), LamportParams(8, 0), derive_wots_params(6, 2, 4, 2)):
        for mode in ("fresh", "exact-sk"):
            for seed in range(6):
                log = analysis.run_scenario(params, seed, mode, notify_adversary=seed % 2)
                total.update((analysis.scenario_text(log) + "\n").encode("utf-8"))
    assert total.hexdigest() == SCENARIO_TEXT
