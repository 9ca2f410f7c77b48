#include "encryptor.h"

namespace cl {

Encryptor::Encryptor(const CkksContext &ctx, const PublicKey &pk,
                     std::uint64_t seed)
    : ctx_(ctx), pk_(pk), rng_(seed)
{
}

Ciphertext
Encryptor::encrypt(const RnsPoly &plain, double scale) const
{
    RnsPoly m = plain;
    m.toNtt();
    const std::vector<unsigned> &idx = m.modIdx();

    RnsPoly v = sampleSmall(ctx_, idx, rng_, true);
    RnsPoly e0 = sampleSmall(ctx_, idx, rng_, false);
    RnsPoly e1 = sampleSmall(ctx_, idx, rng_, false);

    // The public key lives at the top level; the fused MAC reads the
    // towers of the plaintext's basis (a prefix of the data moduli) by
    // chain index. Canonical residues, so e + b*v equals b*v + e.
    Ciphertext ct;
    ct.c0 = std::move(e0);
    ct.c0.addMulAssign(pk_.b, v);
    ct.c0 += m;
    ct.c1 = std::move(e1);
    ct.c1.addMulAssign(pk_.a, v);
    ct.scale = scale;
    return ct;
}

Ciphertext
Encryptor::encryptValues(const CkksEncoder &encoder,
                         const std::vector<Complex> &values, double scale,
                         unsigned level) const
{
    return encrypt(encoder.encode(values, scale, level), scale);
}

Decryptor::Decryptor(const CkksContext &ctx, const SecretKey &sk)
    : ctx_(ctx), sk_(sk)
{
}

RnsPoly
Decryptor::decrypt(const Ciphertext &ct) const
{
    RnsPoly s = sk_.s.subset(ct.c0.modIdx());
    RnsPoly m = ct.c1;
    CL_ASSERT(m.isNtt(), "ciphertexts are kept in NTT form");
    m *= s;
    m += ct.c0;
    return m;
}

std::vector<Complex>
Decryptor::decryptValues(const CkksEncoder &encoder,
                         const Ciphertext &ct) const
{
    return encoder.decode(decrypt(ct), ct.scale);
}

} // namespace cl
