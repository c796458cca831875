"""One-time hash-based signatures with proof-of-forgery evidence.

Lamport and Winternitz one-time schemes with an enlarged preimage
space, exhaustive toy-scale forgery, signer-side forgery detection, and
Monte Carlo validation of the detection-probability bounds.  The
modules are the API: import each name from the module that defines it
(``pofsig.core``, ``pofsig.lamport``, ``pofsig.adversary``, ...).
"""

__version__ = "0.1.0"
