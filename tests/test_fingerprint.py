"""Seeded outputs pinned to frozen digests.

``tools/behaviour_fingerprint.py`` digests CLI key, signature, forgery
and evidence files, experiment reports, census results and scenario
logs.  Every digest below was frozen from a tree known to be correct, so
any change to a seeded output fails here by name.  A deliberate change
re-freezes the affected lines and says so in CHANGES.md.
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
    "experiment.lamport.42":
        "b941896c987c053f1e39ef6393b8d1bf3a1d9b4f0e694978dd5a60cf42db4932",
    "experiment.lamport.7":
        "e073a0c833a2a55e50da77d317a6ca645350481e00215f6f5d5cf5809af757ce",
    "experiment.wots.42":
        "ac29319dd7749bca1371b08d662fb1abcad6e79d5773338f9dd2c56b182183fb",
    "experiment.wots.7":
        "a1a11d5ff3e57878ce86d74e6ea23cda5521d5568726745f5b0f5ac3061beeb0",
    "census.8.0":
        "877d21622a9edd21404dd4e613868a48f4b108f93ea73fb206d71c8002ef8ab2",
    "census.8.2":
        "17e1d0d5e04e1d8baa999e8172701d720ef9e8dad0bd52567c0f4977dc3bfe04",
    "scenario.lamport.6.fresh.0":
        "5205711c4ca10e2ce2f74b1486d5e0f7f4bf940de3a2a54afb496270b301ab8d",
    "scenario.lamport.6.fresh.1":
        "de240c212c0dad0e07fbf15d0311d83ebd10bdfdcc2614ac5bc3383a0047dc1d",
    "scenario.lamport.6.fresh.2":
        "90e4cd34f7017b871b1cbcb915b2061fd9649c58cf54f275f5f8c62943918493",
    "scenario.lamport.6.fresh.3":
        "68632c00b006e76b31e430ecb262e5e9d48d017f9bfc9752e62016ae0ddc96a5",
    "scenario.lamport.6.fresh.4":
        "93a127f05061adc9fb0e7ded6943d8d82ed975c9f778533e134009da83fa7878",
    "scenario.lamport.6.fresh.5":
        "acd52a3216754e174865bfa099b5a4fbe3d802723db955cc63331ceb256cdc0a",
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
        "1b56123e9819c157a47f11561d9133c4b794a3f7ebe1d407459629b1e1bf3b28",
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
        "c7b33d1633543d76d5b70827486cc5592c4c6dbbd464af4fbd1967c3d95c3a7c",
    "scenario.wots.2.fresh.1":
        "afc4c0d7aa4eda6426893cf33ec8a45192b31130524f61f87e44140a94db2563",
    "scenario.wots.2.fresh.2":
        "ff3042200c4c5c98540313bb5073fd66c21c32c39e668ed7287cb715ccf869a0",
    "scenario.wots.2.fresh.3":
        "0036abe0ec068f1499feac45626cc1ae90dafe1d110a80d07cb658d6fe300aa4",
    "scenario.wots.2.fresh.4":
        "e2a17fe7d8cce10e7075e5b30b30a4611a759311ae86754defade9d6e27dddf6",
    "scenario.wots.2.fresh.5":
        "7723778ade23c7efdc313baec8ed504b0ad2a6945f28e203d80e4082d5ef1370",
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
FROZEN_ALL = "fe5b6e7f2b135d014048fa377ab35932d9a519f049ad59aac3b4261f3f175378"


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


# The text and CSV renderings of the fingerprint's four experiments: the
# fingerprint digests their repr, so these pin what `pofsig experiment`
# prints, line for line.
REPORTS = {
    ("lamport", 0x2A): "99eed1dec68fee81ca42ca16a9bf6c5136c0ce69b9c8a562e6bf3c1ecd5e4154",
    ("lamport", 7): "077773294591b1fa460f8bec3d04008e748dc5a6bf172c868b307ad49b37377a",
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
