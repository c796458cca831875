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
        "7a3804572803608f4da9b096c42ff31e6c9551021320d39810a0a1573dd5f7f0",
    "experiment.lamport.7":
        "b440a14b399f0a2363449a0ce6d9e4b39e81ce85f799823b7d34154ca20d2790",
    "experiment.wots.42":
        "32595d4b689179ce870d960ba24338778c1db58ad5094041e83d6486e58f614a",
    "experiment.wots.7":
        "ae9dd6671ec6d0a4c87e2d9ff30879ab7352392a4b32ae0f9d9581b35cee3c74",
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
FROZEN_ALL = "7436d453ab50a610a6803c855dadb18b5abe8492ec59fa1d7a8529509b5fc9fb"


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
