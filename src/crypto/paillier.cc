#include "crypto/paillier.h"

#include "bignum/prime.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace ppstream {

namespace {

/// Process-wide primitive-operation counters ("crypto.*"). Handles are
/// function-local statics so the hot path pays one relaxed atomic add.
obs::Counter& EncryptCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("crypto.encrypts");
  return *c;
}

obs::Counter& DecryptCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("crypto.decrypts");
  return *c;
}

obs::Counter& ScalarMulCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("crypto.scalar_muls");
  return *c;
}

}  // namespace

PaillierPublicKey::PaillierPublicKey(BigInt n)
    : n_(std::move(n)),
      n_squared_(n_ * n_),
      half_n_(n_ >> 1),
      ctx_n2_(std::make_shared<MontgomeryContext>(n_squared_)) {}

void PaillierPublicKey::Serialize(BufferWriter* out) const {
  n_.Serialize(out);
}

Result<PaillierPublicKey> PaillierPublicKey::Deserialize(BufferReader* in) {
  PPS_ASSIGN_OR_RETURN(BigInt n, BigInt::Deserialize(in));
  if (n.Compare(BigInt(3)) <= 0 || !n.IsOdd()) {
    return Status::CryptoError("deserialized Paillier modulus is invalid");
  }
  return PaillierPublicKey(std::move(n));
}

namespace {

/// L(x) = (x - 1) / d, the Paillier L-function (exact division).
Result<BigInt> LFunction(const BigInt& x, const BigInt& d) {
  BigInt q, r;
  PPS_RETURN_IF_ERROR(BigInt::DivMod(x - BigInt(1), d, &q, &r));
  if (!r.IsZero()) {
    return Status::CryptoError("L-function division is not exact");
  }
  return q;
}

/// v mod m for one of the key's own (positive) moduli, which cannot fail.
BigInt ReduceByKeyModulus(const BigInt& v, const BigInt& m) {
  Result<BigInt> reduced = v.Mod(m);
  PPS_CHECK(reduced.ok()) << reduced.status().ToString();
  return std::move(reduced).value();
}

}  // namespace

Result<PaillierPrivateKey> PaillierPrivateKey::FromPrimes(const BigInt& p,
                                                          const BigInt& q) {
  if (p == q) return Status::CryptoError("Paillier primes must differ");
  PaillierPrivateKey sk;
  sk.p_ = p;
  sk.q_ = q;
  sk.p_squared_ = p * p;
  sk.q_squared_ = q * q;
  sk.n_ = p * q;
  sk.ctx_p_ = std::make_shared<MontgomeryContext>(p);
  sk.ctx_q_ = std::make_shared<MontgomeryContext>(q);
  sk.ctx_p2_ = std::make_shared<MontgomeryContext>(sk.p_squared_);
  sk.ctx_q2_ = std::make_shared<MontgomeryContext>(sk.q_squared_);
  PPS_ASSIGN_OR_RETURN(sk.q_mod_pm1_, q.Mod(p - BigInt(1)));
  PPS_ASSIGN_OR_RETURN(sk.p_mod_qm1_, p.Mod(q - BigInt(1)));
  PPS_ASSIGN_OR_RETURN(sk.p2_inv_q2_,
                       BigInt::ModInverse(sk.p_squared_, sk.q_squared_));

  // With g = n + 1: hp = L_p(g^{p-1} mod p^2)^{-1} mod p.
  const BigInt g = sk.n_ + BigInt(1);
  PPS_ASSIGN_OR_RETURN(BigInt gp, g.Mod(sk.p_squared_));
  BigInt gp_pow = sk.ctx_p2_->ModExp(gp, p - BigInt(1));
  PPS_ASSIGN_OR_RETURN(BigInt lp, LFunction(gp_pow, p));
  PPS_ASSIGN_OR_RETURN(BigInt lp_mod, lp.Mod(p));
  PPS_ASSIGN_OR_RETURN(sk.hp_, BigInt::ModInverse(lp_mod, p));

  PPS_ASSIGN_OR_RETURN(BigInt gq, g.Mod(sk.q_squared_));
  BigInt gq_pow = sk.ctx_q2_->ModExp(gq, q - BigInt(1));
  PPS_ASSIGN_OR_RETURN(BigInt lq, LFunction(gq_pow, q));
  PPS_ASSIGN_OR_RETURN(BigInt lq_mod, lq.Mod(q));
  PPS_ASSIGN_OR_RETURN(sk.hq_, BigInt::ModInverse(lq_mod, q));

  PPS_ASSIGN_OR_RETURN(sk.p_inv_q_, BigInt::ModInverse(p, q));
  return sk;
}

Result<BigInt> PaillierPrivateKey::DecryptRaw(const Ciphertext& c) const {
  if (n_.IsZero()) {
    return Status::FailedPrecondition("private key is uninitialized");
  }
  // m_p = L_p(c^{p-1} mod p^2) * hp mod p.
  PPS_ASSIGN_OR_RETURN(BigInt cp, c.value.Mod(p_squared_));
  BigInt cp_pow = ctx_p2_->ModExp(cp, p_ - BigInt(1));
  PPS_ASSIGN_OR_RETURN(BigInt lp, LFunction(cp_pow, p_));
  PPS_ASSIGN_OR_RETURN(BigInt lp_mod, lp.Mod(p_));
  BigInt mp = BigInt::MulMod(lp_mod, hp_, p_);

  PPS_ASSIGN_OR_RETURN(BigInt cq, c.value.Mod(q_squared_));
  BigInt cq_pow = ctx_q2_->ModExp(cq, q_ - BigInt(1));
  PPS_ASSIGN_OR_RETURN(BigInt lq, LFunction(cq_pow, q_));
  PPS_ASSIGN_OR_RETURN(BigInt lq_mod, lq.Mod(q_));
  BigInt mq = BigInt::MulMod(lq_mod, hq_, q_);

  // CRT: m = m_p + p * ((m_q - m_p) * p^{-1} mod q).
  BigInt diff = BigInt::SubMod(mq, mp, q_);
  BigInt h = BigInt::MulMod(diff, p_inv_q_, q_);
  return mp + p_ * h;
}

BigInt PaillierPrivateKey::RaiseToN(const BigInt& r) const {
  PPS_CHECK(!n_.IsZero()) << "RaiseToN on an uninitialized private key";
  // p | n, so (r + kp)^n ≡ r^n (mod p^2): only r mod p matters. Writing
  // r^n = (r^q)^p, the inner power needs only its residue mod p (same
  // lifting argument), where Fermat cuts the exponent q to q mod (p-1).
  const BigInt xp = ctx_p2_->ModExp(
      ctx_p_->ModExp(ReduceByKeyModulus(r, p_), q_mod_pm1_), p_);
  const BigInt xq = ctx_q2_->ModExp(
      ctx_q_->ModExp(ReduceByKeyModulus(r, q_), p_mod_qm1_), q_);
  // CRT: x = xp + p^2 * ((xq - xp) * (p^2)^{-1} mod q^2), which lies in
  // [0, n^2) — the canonical representative ModExp mod n^2 returns.
  const BigInt diff = BigInt::SubMod(
      xq, ReduceByKeyModulus(xp, q_squared_), q_squared_);
  return xp + p_squared_ * BigInt::MulMod(diff, p2_inv_q2_, q_squared_);
}

Result<PaillierKeyPair> Paillier::GenerateKeyPair(int key_bits, Rng& rng) {
  if (key_bits < 64 || key_bits % 2 != 0) {
    return Status::InvalidArgument(
        internal::StrCat("key_bits must be even and >= 64, got ", key_bits));
  }
  BigInt p, q;
  PPS_RETURN_IF_ERROR(GeneratePaillierPrimes(rng, key_bits / 2, &p, &q));
  PaillierKeyPair pair;
  pair.public_key = PaillierPublicKey(p * q);
  PPS_ASSIGN_OR_RETURN(pair.private_key, PaillierPrivateKey::FromPrimes(p, q));
  return pair;
}

Result<BigInt> Paillier::EncodeSigned(const PaillierPublicKey& pk,
                                      const BigInt& m) {
  BigInt abs = m.IsNegative() ? -m : m;
  if (abs.Compare(pk.half_n()) >= 0) {
    return Status::OutOfRange(
        internal::StrCat("plaintext magnitude ", abs.ToDecimalString(),
                         " exceeds n/2; increase the key size"));
  }
  if (!m.IsNegative()) return m;
  return pk.n() + m;  // m in (-n/2, 0) maps to (n/2, n)
}

BigInt Paillier::DecodeSigned(const PaillierPublicKey& pk, const BigInt& v) {
  if (v.Compare(pk.half_n()) > 0) return v - pk.n();
  return v;
}

Result<Ciphertext> Paillier::Encrypt(const PaillierPublicKey& pk,
                                     const BigInt& m, SecureRng& rng) {
  EncryptCounter().Increment();
  PPS_ASSIGN_OR_RETURN(BigInt encoded, EncodeSigned(pk, m));
  // g^m = (1 + n)^m = 1 + m n (mod n^2) since g = n + 1.
  PPS_ASSIGN_OR_RETURN(BigInt gm,
                       (BigInt(1) + encoded * pk.n()).Mod(pk.n_squared()));
  BigInt r = rng.NextCoprimeBelow(pk.n());
  BigInt rn = pk.ctx_n2().ModExp(r, pk.n());
  return Ciphertext{pk.ctx_n2().ModMul(gm, rn)};
}

Result<BigInt> Paillier::Decrypt(const PaillierPublicKey& pk,
                                 const PaillierPrivateKey& sk,
                                 const Ciphertext& c) {
  DecryptCounter().Increment();
  PPS_ASSIGN_OR_RETURN(BigInt raw, sk.DecryptRaw(c));
  return DecodeSigned(pk, raw);
}

Ciphertext Paillier::Add(const PaillierPublicKey& pk, const Ciphertext& c1,
                         const Ciphertext& c2) {
  return Ciphertext{pk.ctx_n2().ModMul(c1.value, c2.value)};
}

Result<Ciphertext> Paillier::AddPlain(const PaillierPublicKey& pk,
                                      const Ciphertext& c, const BigInt& k) {
  PPS_ASSIGN_OR_RETURN(BigInt encoded, EncodeSigned(pk, k));
  PPS_ASSIGN_OR_RETURN(BigInt gk,
                       (BigInt(1) + encoded * pk.n()).Mod(pk.n_squared()));
  return Ciphertext{pk.ctx_n2().ModMul(c.value, gk)};
}

Result<Ciphertext> Paillier::ScalarMul(const PaillierPublicKey& pk,
                                       const Ciphertext& c, const BigInt& w) {
  ScalarMulCounter().Increment();
  if (w.IsZero()) return Ciphertext{BigInt(1)};  // E(0) with r = 1
  if (w.IsNegative()) {
    PPS_ASSIGN_OR_RETURN(BigInt inv,
                         BigInt::ModInverse(c.value, pk.n_squared()));
    return Ciphertext{pk.ctx_n2().ModExp(inv, -w)};
  }
  return Ciphertext{pk.ctx_n2().ModExp(c.value, w)};
}

Result<Ciphertext> Paillier::Negate(const PaillierPublicKey& pk,
                                    const Ciphertext& c) {
  return ScalarMul(pk, c, BigInt(-1));
}

Result<Ciphertext> Paillier::Rerandomize(const PaillierPublicKey& pk,
                                         const Ciphertext& c, SecureRng& rng) {
  BigInt r = rng.NextCoprimeBelow(pk.n());
  BigInt rn = pk.ctx_n2().ModExp(r, pk.n());
  return Ciphertext{pk.ctx_n2().ModMul(c.value, rn)};
}

Ciphertext Paillier::EncryptZeroDeterministic(const PaillierPublicKey& pk) {
  (void)pk;
  return Ciphertext{BigInt(1)};  // g^0 * 1^n = 1
}

Result<Ciphertext> Paillier::EncryptWithRandomizer(const PaillierPublicKey& pk,
                                                   const BigInt& m,
                                                   const BigInt& rn) {
  EncryptCounter().Increment();
  PPS_ASSIGN_OR_RETURN(BigInt encoded, EncodeSigned(pk, m));
  PPS_ASSIGN_OR_RETURN(BigInt gm,
                       (BigInt(1) + encoded * pk.n()).Mod(pk.n_squared()));
  return Ciphertext{pk.ctx_n2().ModMul(gm, rn)};
}

Ciphertext Paillier::RerandomizeWithRandomizer(const PaillierPublicKey& pk,
                                               const Ciphertext& c,
                                               const BigInt& rn) {
  return Ciphertext{pk.ctx_n2().ModMul(c.value, rn)};
}

Result<FixedBaseExp> Paillier::PrecomputeScalarMulBase(
    const PaillierPublicKey& pk, const Ciphertext& c, int max_weight_bits,
    bool allow_negative, int64_t fan_out_hint) {
  return FixedBaseExp::Create(pk.ctx_n2(), c.value, max_weight_bits,
                              allow_negative, fan_out_hint);
}

Result<Ciphertext> Paillier::ScalarMulPrecomputed(const FixedBaseExp& base,
                                                  const BigInt& w) {
  ScalarMulCounter().Increment();
  PPS_ASSIGN_OR_RETURN(BigInt v, base.Pow(w));
  return Ciphertext{std::move(v)};
}

MontCiphertext Paillier::ToMontResident(const PaillierPublicKey& pk,
                                        const Ciphertext& c) {
  return MontCiphertext{pk.ctx_n2().ToMontgomery(c.value)};
}

Ciphertext Paillier::FromMontResident(const PaillierPublicKey& pk,
                                      const MontCiphertext& c) {
  return Ciphertext{pk.ctx_n2().FromMontgomery(c.m)};
}

MontCiphertext Paillier::EncryptZeroMontResident(const PaillierPublicKey& pk) {
  return MontCiphertext{pk.ctx_n2().OneMont()};
}

MontCiphertext Paillier::AddMont(const PaillierPublicKey& pk,
                                 const MontCiphertext& c1,
                                 const MontCiphertext& c2) {
  MontCiphertext out;
  pk.ctx_n2().MulMont(c1.m, c2.m, &out.m);
  return out;
}

Result<MontCiphertext> Paillier::AddPlainMont(const PaillierPublicKey& pk,
                                              const MontCiphertext& c,
                                              const BigInt& k) {
  PPS_ASSIGN_OR_RETURN(BigInt encoded, EncodeSigned(pk, k));
  PPS_ASSIGN_OR_RETURN(BigInt gk,
                       (BigInt(1) + encoded * pk.n()).Mod(pk.n_squared()));
  MontCiphertext out;
  pk.ctx_n2().MulMont(c.m, pk.ctx_n2().ToMontgomery(gk), &out.m);
  return out;
}

Result<MontCiphertext> Paillier::ScalarMulMont(const PaillierPublicKey& pk,
                                               const MontCiphertext& c,
                                               const BigInt& w) {
  ScalarMulCounter().Increment();
  const MontgomeryContext& ctx = pk.ctx_n2();
  MontCiphertext out;
  if (w.IsZero()) {
    out.m = ctx.OneMont();  // E(0) with r = 1
    return out;
  }
  if (w.IsNegative()) {
    // Inversion happens on the canonical form; this is one extra
    // conversion per call, matching what the non-resident path pays.
    PPS_ASSIGN_OR_RETURN(
        BigInt inv, BigInt::ModInverse(ctx.FromMontgomery(c.m),
                                       pk.n_squared()));
    ctx.ExpMont(ctx.ToMontgomery(inv), -w, &out.m);
    return out;
  }
  ctx.ExpMont(c.m, w, &out.m);
  return out;
}

}  // namespace ppstream
