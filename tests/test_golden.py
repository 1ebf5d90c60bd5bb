"""Golden digests: whole-corpus outputs pinned by sha256.

The corpus is every valid irreducible cyclic code (q, k, N) with
q**k <= 2**12, over every prime q: 8102 codes. One digest covers their
to_dict() JSON, one their formula spectra, each checked against the
trace-word oracle on the way. A digest hashes one sorted-keys JSON line
per item, in corpus order. Only ints and strings enter it, so it does
not depend on float formatting or on the last bits of numpy's
arithmetic. Any change to a code, a spectrum or the order of the corpus
shows as a changed digest.

The same loop runs Rabin's test on every check polynomial: the library
proves h irreducible rather than testing it (codes.irreducible_cyclic_code),
and this is where that proof is checked. The digest of factor_xn_minus_1
is taken in criterion 5 of test_acceptance.py, whose loop already walks
its corpus.

The field layer has a digest of its own: the modulus, alpha and the
trace table, byte for byte in little-endian order, of every field
GF(q**k) with prime q < 300 and q**k <= 2**16, 155 of them, built cold.
"""

import hashlib
import json

from cycenum import (build_ext_field, irreducible_cyclic_code, poly,
                     weight_spectrum_bruteforce, weight_spectrum_mceliece)
from cycenum.intmath import is_prime
from gf_utils import valid_codes

CAP = 1 << 12
CODES_SHA256 = "af3b9b0ff017ac2fb6d1cfb6d3a31424f5eec5fb291afce2682737407bdbc75f"
SPECTRA_SHA256 = "2d208c2c46ed8a7a3602330e6c1f38e928aac0f3b081a9f991ff1a3f9b097950"
FIELDS_SHA256 = "7cec037898e8bd11a668caaa7dfadf03f60f767f64714e445c55e4a027712f67"


def test_codes_and_spectra_match_their_digests():
    codes, spectra = hashlib.sha256(), hashlib.sha256()
    count = 0
    for q, k, N in valid_codes(CAP):
        spec = irreducible_cyclic_code(q, k, N)
        assert poly.is_irreducible(spec.check, q), (q, k, N)
        formula = weight_spectrum_mceliece(spec)
        assert formula == weight_spectrum_bruteforce(spec), (q, k, N)
        codes.update(json.dumps(spec.to_dict(), sort_keys=True).encode() + b"\n")
        spectra.update(json.dumps([q, k, N, formula.to_dict()]).encode() + b"\n")
        count += 1
    assert count == 8102
    assert (codes.hexdigest(), spectra.hexdigest()) == (CODES_SHA256, SPECTRA_SHA256)


def test_fields_match_their_digest():
    digest = hashlib.sha256()
    count = 0
    build_ext_field.cache_clear()
    for q in filter(is_prime, range(2, 300)):
        k = 1
        while q**k <= 1 << 16:
            F = build_ext_field(q, k)
            trace = F.trace_table()
            digest.update(json.dumps([q, k, list(F.modulus), F.alpha]).encode() + b"\n")
            digest.update(trace.astype(trace.dtype.newbyteorder("<")).tobytes())
            count += 1
            k += 1
    build_ext_field.cache_clear()
    assert count == 155
    assert digest.hexdigest() == FIELDS_SHA256
