// Paillier partially homomorphic public-key cryptosystem (Paillier, 1999).
//
// PP-Stream uses Paillier's PHE for privacy-preserving linear layers
// (paper Section III-B):
//   addition:               m1 + m2 = D(E(m1) * E(m2) mod n^2)
//   scalar multiplication:  w * m   = D(E(m)^w mod n^2)
//
// Implementation notes:
//  * g is fixed to n + 1, so E(m) = (1 + m n) * r^n mod n^2 — one modexp
//    per encryption instead of two.
//  * Decryption uses the CRT split mod p^2 / q^2 (about 4x faster than the
//    direct form at equal key size).
//  * Signed plaintexts are encoded into Z_n: values in (n/2, n) decode as
//    negatives. |m| must stay below n/2; linear layers guarantee this by
//    construction (parameter scaling bounds the dynamic range).
//  * Montgomery contexts for n^2, p^2, q^2 (and p, q on the private key)
//    are precomputed per key.
//  * The key holder raises randomizers by CRT (PaillierPrivateKey::
//    RaiseToN): r^n mod p^2 depends only on r mod p, so two half-width
//    exponentiations per prime replace one full-width ModExp mod n^2, with
//    the same canonical result (DESIGN.md §8).

#pragma once

#include <memory>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/fixed_base.h"
#include "bignum/montgomery.h"
#include "crypto/secure_rng.h"
#include "util/rng.h"
#include "util/status.h"

namespace ppstream {

/// A Paillier ciphertext: a unit of Z*_{n^2}. Value-semantic. Always
/// carries the canonical representative — this is the form that crosses
/// party and wire boundaries (the serialized encoding never changes).
struct Ciphertext {
  BigInt value;

  void Serialize(BufferWriter* out) const { value.Serialize(out); }
  static Result<Ciphertext> Deserialize(BufferReader* in) {
    PPS_ASSIGN_OR_RETURN(BigInt v, BigInt::Deserialize(in));
    return Ciphertext{std::move(v)};
  }
};

/// A ciphertext resident in the Montgomery domain of a key's n^2 context —
/// the stage-internal representation. Long Add/ScalarMul chains on
/// residents pay one Montgomery multiplication per op instead of a
/// ToMont/FromMont round trip each; convert back with
/// Paillier::FromMontResident at stage boundaries (serialization always
/// sees the canonical Ciphertext, so the wire format is unchanged).
struct MontCiphertext {
  MontgomeryContext::MontValue m;
};

/// Public key: everything the model provider needs for homomorphic ops.
class PaillierPublicKey {
 public:
  PaillierPublicKey() = default;
  explicit PaillierPublicKey(BigInt n);

  const BigInt& n() const { return n_; }
  const BigInt& n_squared() const { return n_squared_; }
  /// Half of n; the signed-encoding threshold.
  const BigInt& half_n() const { return half_n_; }
  int key_bits() const { return n_.BitLength(); }

  const MontgomeryContext& ctx_n2() const { return *ctx_n2_; }

  void Serialize(BufferWriter* out) const;
  static Result<PaillierPublicKey> Deserialize(BufferReader* in);

 private:
  BigInt n_;
  BigInt n_squared_;
  BigInt half_n_;
  std::shared_ptr<MontgomeryContext> ctx_n2_;
};

/// Private key: CRT decryption material. Held only by the data provider.
class PaillierPrivateKey {
 public:
  PaillierPrivateKey() = default;
  /// Builds decryption material from the prime factorization of n.
  static Result<PaillierPrivateKey> FromPrimes(const BigInt& p,
                                               const BigInt& q);

  const BigInt& p() const { return p_; }
  const BigInt& q() const { return q_; }

  /// Raw decryption to the canonical representative in [0, n).
  Result<BigInt> DecryptRaw(const Ciphertext& c) const;

  /// r^n mod n^2 for r >= 0, bit-identical to ctx_n2().ModExp(r, n) but
  /// computed from the factorization: r^n ≡ ((r mod p)^(q mod (p-1)) mod
  /// p)^p (mod p^2), the same mod q^2, recombined by CRT. Requires a key
  /// built by FromPrimes (checked). Timing exposure is the class
  /// DecryptRaw already has: secret moduli and fixed per-key exponents.
  BigInt RaiseToN(const BigInt& r) const;

 private:
  BigInt p_, q_;
  BigInt p_squared_, q_squared_;
  BigInt n_;
  BigInt hp_, hq_;      // L_p(g^{p-1} mod p^2)^{-1} mod p, and q analog
  BigInt p_inv_q_;      // p^{-1} mod q, for CRT recombination
  BigInt q_mod_pm1_;    // q mod (p-1): the exponent of r mod p in RaiseToN
  BigInt p_mod_qm1_;    // p mod (q-1), the q analog
  BigInt p2_inv_q2_;    // (p^2)^{-1} mod q^2, for RaiseToN's recombination
  std::shared_ptr<MontgomeryContext> ctx_p_, ctx_q_, ctx_p2_, ctx_q2_;
};

struct PaillierKeyPair {
  PaillierPublicKey public_key;
  PaillierPrivateKey private_key;
};

/// Stateless Paillier operations.
class Paillier {
 public:
  /// Generates a key pair with an n of roughly `key_bits` bits
  /// (two primes of key_bits/2 each). key_bits must be >= 64 and even.
  static Result<PaillierKeyPair> GenerateKeyPair(int key_bits, Rng& rng);

  /// Encrypts a signed integer m with |m| < n/2.
  static Result<Ciphertext> Encrypt(const PaillierPublicKey& pk,
                                    const BigInt& m, SecureRng& rng);

  /// Decrypts to a signed integer (values above n/2 map to negatives).
  static Result<BigInt> Decrypt(const PaillierPublicKey& pk,
                                const PaillierPrivateKey& sk,
                                const Ciphertext& c);

  /// E(m1 + m2) from E(m1), E(m2).
  static Ciphertext Add(const PaillierPublicKey& pk, const Ciphertext& c1,
                        const Ciphertext& c2);

  /// E(m + k) from E(m) and plaintext k (signed).
  static Result<Ciphertext> AddPlain(const PaillierPublicKey& pk,
                                     const Ciphertext& c, const BigInt& k);

  /// E(w * m) from E(m) and signed scalar w.
  static Result<Ciphertext> ScalarMul(const PaillierPublicKey& pk,
                                      const Ciphertext& c, const BigInt& w);

  /// E(-m) from E(m).
  static Result<Ciphertext> Negate(const PaillierPublicKey& pk,
                                   const Ciphertext& c);

  /// Fresh randomization: multiplies by r^n, preserving the plaintext.
  static Result<Ciphertext> Rerandomize(const PaillierPublicKey& pk,
                                        const Ciphertext& c, SecureRng& rng);

  /// Encryption of zero with fixed randomness r = 1 (useful as an additive
  /// identity when accumulating dot products).
  static Ciphertext EncryptZeroDeterministic(const PaillierPublicKey& pk);

  // ---- Amortized hot-path API (DESIGN.md §8).

  /// E(m) with a precomputed randomizer rn = r^n mod n^2 (from a
  /// RandomizerPool): one ModMul on the request path instead of a
  /// full-width ModExp.
  static Result<Ciphertext> EncryptWithRandomizer(const PaillierPublicKey& pk,
                                                  const BigInt& m,
                                                  const BigInt& rn);

  /// Rerandomization with a precomputed rn: one ModMul.
  static Ciphertext RerandomizeWithRandomizer(const PaillierPublicKey& pk,
                                              const Ciphertext& c,
                                              const BigInt& rn);

  /// Builds the fixed-base exponent table for E(m), after which every
  /// ScalarMulPrecomputed against it is table lookups + MontMuls with zero
  /// squarings. `max_weight_bits` bounds |w|; `allow_negative` enables
  /// negative weights; `fan_out_hint` is the expected reuse count.
  static Result<FixedBaseExp> PrecomputeScalarMulBase(
      const PaillierPublicKey& pk, const Ciphertext& c, int max_weight_bits,
      bool allow_negative, int64_t fan_out_hint);

  /// E(w * m) through a table from PrecomputeScalarMulBase.
  static Result<Ciphertext> ScalarMulPrecomputed(const FixedBaseExp& base,
                                                 const BigInt& w);

  // ---- Montgomery-resident ops (stage-internal; see MontCiphertext).

  static MontCiphertext ToMontResident(const PaillierPublicKey& pk,
                                       const Ciphertext& c);
  static Ciphertext FromMontResident(const PaillierPublicKey& pk,
                                     const MontCiphertext& c);
  /// Resident E(0) with randomness r = 1, the accumulation identity.
  static MontCiphertext EncryptZeroMontResident(const PaillierPublicKey& pk);
  /// E(m1 + m2): one Montgomery multiplication.
  static MontCiphertext AddMont(const PaillierPublicKey& pk,
                                const MontCiphertext& c1,
                                const MontCiphertext& c2);
  /// E(m + k) for plaintext k (signed).
  static Result<MontCiphertext> AddPlainMont(const PaillierPublicKey& pk,
                                             const MontCiphertext& c,
                                             const BigInt& k);
  /// E(w * m) for signed scalar w, staying resident.
  static Result<MontCiphertext> ScalarMulMont(const PaillierPublicKey& pk,
                                              const MontCiphertext& c,
                                              const BigInt& w);

  /// Encodes a signed value into Z_n (fails if |m| >= n/2).
  static Result<BigInt> EncodeSigned(const PaillierPublicKey& pk,
                                     const BigInt& m);
  /// Decodes a canonical representative in [0, n) back to signed.
  static BigInt DecodeSigned(const PaillierPublicKey& pk, const BigInt& v);
};

}  // namespace ppstream
