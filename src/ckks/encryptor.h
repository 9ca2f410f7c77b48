/**
 * @file
 * Encryption and decryption (Sec 2.2): m -> ct = (-a·s + e + m, a).
 */

#ifndef CL_CKKS_ENCRYPTOR_H
#define CL_CKKS_ENCRYPTOR_H

#include "ckks/ciphertext.h"
#include "ckks/encoder.h"
#include "ckks/keys.h"

namespace cl {

class Encryptor
{
  public:
    /** Holds @p pk by reference: the key must outlive the
     *  encryptor. */
    Encryptor(const CkksContext &ctx, const PublicKey &pk,
              std::uint64_t seed = 42);
    Encryptor(const CkksContext &ctx, PublicKey &&pk,
              std::uint64_t seed = 42) = delete;

    /** Encrypt a plaintext polynomial (NTT or coeff form) at its level. */
    Ciphertext encrypt(const RnsPoly &plain, double scale) const;

    /** Encode-and-encrypt convenience. */
    Ciphertext encryptValues(const CkksEncoder &encoder,
                             const std::vector<Complex> &values,
                             double scale, unsigned level) const;

  private:
    const CkksContext &ctx_;
    const PublicKey &pk_;
    mutable FastRng rng_;
};

class Decryptor
{
  public:
    Decryptor(const CkksContext &ctx, const SecretKey &sk);

    /** Decrypt to a plaintext polynomial (NTT form). */
    RnsPoly decrypt(const Ciphertext &ct) const;

    /** Decrypt-and-decode convenience. */
    std::vector<Complex> decryptValues(const CkksEncoder &encoder,
                                       const Ciphertext &ct) const;

  private:
    const CkksContext &ctx_;
    const SecretKey &sk_;
};

} // namespace cl

#endif // CL_CKKS_ENCRYPTOR_H
