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
        "2443fdaa56ee531729b8db74c269ee2200db57235dbdb9b1ec682125682d73fe",
    "experiment.wots.42":
        "386dba1b095c0aaa22a20fb385bc6563eae535efa822f75343bcb2a4540fd442",
    "experiment.wots.7":
        "99b82017125fa242598d498dcb6afec3f39e96ec2daab28d7f58fafb7387b47d",
    "census.8.0":
        "561e34fc7e60a22e02933b07d5303fde208e4e3ffbb052ce5ebe59e7c20b67db",
    "census.8.2":
        "10a874fa03c625c4c7b2151febc7153f79e65a0acb0d34d61e7564fcf4a8d16c",
    "scenario.lamport.6.fresh.0":
        "fdd6cc2e597e42618a851d584a95fff7be1c088280f337ea59688492343c1be1",
    "scenario.lamport.6.fresh.1":
        "037bbd78d5c95932cbe79bd51a5e4075a3daee04b6202375d27765357c941a6c",
    "scenario.lamport.6.fresh.2":
        "fee3105e1e724c5b400c4ba8365e0cc484a14b57e84264b694446e95ac705860",
    "scenario.lamport.6.fresh.3":
        "37dc478d844a17ad27786d7e1a693e0de4e3becdd446a97ee0f378516fc7a88d",
    "scenario.lamport.6.fresh.4":
        "6c455c4068c3f840a9e8abcd7600bce46d00d885f118aba31e17babaa85c7397",
    "scenario.lamport.6.fresh.5":
        "f137258b5d4729bb5a4a70c2ce505dde46930826f8583f93bc962f06a4732dcd",
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
        "0fb840716bfcd00ae492c84a4c6203dbc0a59276b6a57df8686b2ae47e5046a3",
    "scenario.lamport.0.fresh.1":
        "d07224f148865fb1e7e72fc5487047ba60bf50ba6ff13ee3a30a368bcf0c65c2",
    "scenario.lamport.0.fresh.2":
        "d07224f148865fb1e7e72fc5487047ba60bf50ba6ff13ee3a30a368bcf0c65c2",
    "scenario.lamport.0.fresh.3":
        "d07224f148865fb1e7e72fc5487047ba60bf50ba6ff13ee3a30a368bcf0c65c2",
    "scenario.lamport.0.fresh.4":
        "b36092a6fe1da126b7c843b5f6881749f40b51ace8a5ab05a04f85da0ef51085",
    "scenario.lamport.0.fresh.5":
        "74804388bf58a7e6e4efb616840d0c8dc21881689d031e30bdb80b75212df98f",
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
        "1a5a370a0a74cb425d2765e3292618cf4b777e391c840eca090e7d76d57823e5",
    "scenario.wots.2.fresh.1":
        "ee811b52f28343fc3528254158af2b1ded1ef43990741d0496fc523a7c4b5747",
    "scenario.wots.2.fresh.2":
        "a57d726426bac34a7b81abafc4da71c0753744e1618d6597e53ff9654224a330",
    "scenario.wots.2.fresh.3":
        "90fadef6f5366942ee80d2def7b38e950da94b561bcc1d5a75c0957257909702",
    "scenario.wots.2.fresh.4":
        "4f3033e87e964f6849650d606506f0022327c5ef3e99fc79f6bf5e0b8eb0f81a",
    "scenario.wots.2.fresh.5":
        "cc3c779a9353af3860961a48eddd77c58e5adf55e14351b300bd94fa189dbb9c",
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
FROZEN_ALL = "4e3c037b02ed75b5c2b3be2fa8b232010b7617efdf110b9c62f51ceaa3814d91"


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
