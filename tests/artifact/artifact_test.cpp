// Artifact format tests: round-trip fidelity, zero-copy replica
// construction, and the full fault-injection corruption matrix — every
// single byte flip and every truncation class must be rejected with a typed
// ArtifactError, never a crash, an allocation bomb, or silently wrong
// weights.
#include "src/artifact/artifact.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/robust/fault_injector.h"
#include "src/snn/snn_network.h"
#include "src/tensor/random.h"
#include "src/util/serialize.h"

namespace ullsnn::artifact {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.uniform() * 0.5F - 0.25F;
  }
  return t;
}

snn::IfConfig if_config(float v_th = 0.4F) {
  snn::IfConfig c;
  c.v_threshold = v_th;
  c.leak = 1.0F;
  return c;
}

/// Conv -> maxpool -> flatten -> dropout -> linear -> readout over a
/// {2, 4, 4} input: exercises every weighted layer kind except residual.
std::unique_ptr<snn::SnnNetwork> make_vggish_net(std::uint64_t seed,
                                                 std::int64_t time_steps = 3) {
  Rng rng(seed);
  auto net = std::make_unique<snn::SnnNetwork>(time_steps);
  Conv2dSpec conv{/*in_channels=*/2, /*out_channels=*/4, /*kernel=*/3,
                  /*stride=*/1, /*pad=*/1};
  net->emplace<snn::SynapticLayer>(snn::Synapse(random_tensor({4, 2, 3, 3}, rng), conv),
                                   if_config());
  net->emplace<snn::SpikingMaxPool>(Pool2dSpec{2, 2});
  net->emplace<snn::SpikingFlatten>();
  net->emplace<snn::SpikingDropout>(0.1F, net->dropout_rng());
  net->emplace<snn::SynapticLayer>(
      snn::Synapse(random_tensor({8, 16}, rng)), if_config());
  net->emplace<snn::SynapticLayer>(
      snn::Synapse(random_tensor({3, 8}, rng)), std::nullopt);
  return net;
}

/// Residual block (with projection) -> avgpool -> flatten -> readout:
/// covers the remaining layer kinds.
std::unique_ptr<snn::SnnNetwork> make_resnetish_net(std::uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<snn::SnnNetwork>(2);
  Conv2dSpec c1{2, 4, 3, /*stride=*/2, /*pad=*/1};
  Conv2dSpec c2{4, 4, 3, 1, 1};
  Conv2dSpec proj{2, 4, 1, /*stride=*/2, /*pad=*/0};
  net->emplace<snn::SpikingResidualBlock>(
      random_tensor({4, 2, 3, 3}, rng), c1, if_config(),
      random_tensor({4, 4, 3, 3}, rng), c2, if_config(),
      random_tensor({4, 2, 1, 1}, rng), proj);
  net->emplace<snn::SpikingAvgPool>(Pool2dSpec{2, 2});
  net->emplace<snn::SpikingFlatten>();
  net->emplace<snn::SynapticLayer>(
      snn::Synapse(random_tensor({3, 4}, rng)), std::nullopt);
  return net;
}

PackOptions pack_options() {
  PackOptions opt;
  opt.input_shape = {2, 4, 4};
  opt.probe_batch = 2;
  return opt;
}

std::string packed_artifact(const char* name, std::uint64_t seed = 11) {
  const std::string path = temp_path(name);
  auto net = make_vggish_net(seed);
  pack_network(*net, path, pack_options());
  return path;
}

// ---------------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------------

TEST(ArtifactTest, RoundTripReproducesBitExactLogits) {
  const std::string path = temp_path("artifact_roundtrip.art");
  auto source = make_vggish_net(3);
  pack_network(*source, path, pack_options());

  auto art = UllsnnArtifact::load(path);
  EXPECT_EQ(art->time_steps(), 3);
  EXPECT_EQ(art->arch().layers.size(), 6U);
  EXPECT_EQ(art->tensor_count(), 3);
  EXPECT_EQ(art->input_shape(), Shape({2, 4, 4}));
  EXPECT_EQ(art->probe_time_steps(), 3);

  Rng rng(77);
  Tensor batch = random_tensor({2, 2, 4, 4}, rng);
  source->reset_state();
  const Tensor expected = source->forward(batch, false);

  auto replica = art->make_network();
  replica->reset_state();
  const Tensor got = replica->forward(batch, false);
  ASSERT_EQ(got.shape(), expected.shape());
  EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0)
      << "replica logits differ from the packed network's";
  std::filesystem::remove(path);
}

TEST(ArtifactTest, ResidualArchRoundTrips) {
  const std::string path = temp_path("artifact_residual.art");
  auto source = make_resnetish_net(5);
  pack_network(*source, path, pack_options());
  auto art = UllsnnArtifact::load(path);
  EXPECT_EQ(art->tensor_count(), 4);  // conv1, conv2, projection, head
  ASSERT_EQ(art->arch().layers.size(), 4U);
  EXPECT_EQ(art->arch().layers[0].kind, LayerKind::kResidual);
  EXPECT_EQ(art->arch().layers[0].has_projection, 1);

  Rng rng(78);
  Tensor batch = random_tensor({1, 2, 4, 4}, rng);
  source->reset_state();
  const Tensor expected = source->forward(batch, false);
  auto replica = art->make_network();
  replica->reset_state();
  const Tensor got = replica->forward(batch, false);
  EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0);
  std::filesystem::remove(path);
}

TEST(ArtifactTest, Int8PackRoundTripsAndReplaysCanaryBitExact) {
  const std::string path = temp_path("artifact_int8.art");
  auto source = make_vggish_net(13);
  PackOptions opt = pack_options();
  opt.precision = Precision::kInt8;
  pack_network(*source, path, opt);
  // pack_network flips the live net to int8 only for the probe forward.
  EXPECT_EQ(source->precision(), Precision::kFp32);

  auto art = UllsnnArtifact::load(path);
  EXPECT_EQ(art->precision(), Precision::kInt8);
  EXPECT_EQ(art->quant_weights().size(), 3U);  // conv + 2 linear weights

  // A replica built from the artifact serves at int8 and must reproduce the
  // canary logits recorded at pack time bit-for-bit — this is the deploy
  // gate an int8 artifact has to clear.
  auto replica = art->make_network();
  EXPECT_EQ(replica->precision(), Precision::kInt8);
  replica->reset_state();
  const Tensor canary = replica->forward(art->probe_inputs(), false);
  const Tensor want = art->probe_logits();
  ASSERT_EQ(canary.shape(), want.shape());
  EXPECT_EQ(std::memcmp(canary.data(), want.data(),
                        static_cast<std::size_t>(want.numel()) * sizeof(float)),
            0)
      << "int8 replica canary drifted from the packed logits";

  // Disk-installed quantized weights must equal what the live network
  // self-quantizes lazily: same batch, bitwise-equal logits.
  Rng rng(80);
  Tensor batch = random_tensor({2, 2, 4, 4}, rng);
  source->set_precision(Precision::kInt8);
  source->reset_state();
  const Tensor expected = source->forward(batch, false);
  replica->reset_state();
  const Tensor got = replica->forward(batch, false);
  ASSERT_EQ(got.shape(), expected.shape());
  EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0);

  // Sanity: the precision flag actually routed dense samples through the
  // int8 kernel (spike thresholding can absorb the quantization deltas on a
  // net this small, so compare dispatch counts, not logits).
  const std::int64_t before =
      obs::Registry::instance().counter("kernels.int8_dispatch").value();
  replica->reset_state();
  replica->forward(batch, false);
  EXPECT_GT(obs::Registry::instance().counter("kernels.int8_dispatch").value(),
            before);
  std::filesystem::remove(path);
}

TEST(ArtifactTest, PoissonEncodingAndSeedSurviveRoundTrip) {
  const std::string path = temp_path("artifact_poisson.art");
  auto source = make_vggish_net(9);
  source->set_encoding(snn::Encoding::kPoisson, 4242);
  pack_network(*source, path, pack_options());
  auto art = UllsnnArtifact::load(path);
  EXPECT_EQ(art->arch().encoding,
            static_cast<std::uint32_t>(snn::Encoding::kPoisson));
  EXPECT_EQ(art->arch().encoder_seed, 4242U);

  Rng rng(79);
  Tensor batch = random_tensor({2, 2, 4, 4}, rng);
  source->reset_state();
  const Tensor expected = source->forward(batch, false);
  auto replica = art->make_network();
  replica->reset_state();
  const Tensor got = replica->forward(batch, false);
  EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0)
      << "Poisson encoder stream did not replay identically";
  std::filesystem::remove(path);
}

TEST(ArtifactTest, ReplicasAreZeroCopyOverTheMapping) {
  const std::string path = packed_artifact("artifact_zerocopy.art");
  auto art = UllsnnArtifact::load(path);
  auto a = art->make_network();
  auto b = art->make_network();

  auto* conv_a = dynamic_cast<snn::SynapticLayer*>(&a->layer(0));
  auto* conv_b = dynamic_cast<snn::SynapticLayer*>(&b->layer(0));
  ASSERT_NE(conv_a, nullptr);
  ASSERT_NE(conv_b, nullptr);
  ASSERT_EQ(conv_a->synapse().kind(), snn::Synapse::Kind::kConv);
  const Tensor& wa = conv_a->synapse().weight().value;
  const Tensor& wb = conv_b->synapse().weight().value;
  EXPECT_TRUE(wa.borrowed());
  // Both replicas read the SAME mapped bytes: no per-worker weight copies.
  EXPECT_EQ(wa.data(), wb.data());
  EXPECT_TRUE(art->contains(wa.data()));

  // 64-byte alignment of every tensor payload, straight from the mapping.
  // (Read through a const binding: non-const data() detaches by design.)
  for (std::int64_t i = 0; i < art->tensor_count(); ++i) {
    const Tensor view = art->tensor_view(i);
    ASSERT_TRUE(view.borrowed());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view.data()) % 64, 0U);
  }
  std::filesystem::remove(path);
}

/// Every synapse of `net`: a weight plus the prepared operand it serves from.
struct SynapseView {
  const Tensor* weight;
  const snn::Synapse* synapse;
  const PreparedWeight* prepared() const { return synapse->prepared_weight().get(); }
  const SpikeKernelStats& stats() const { return synapse->kernel_stats(); }
};

std::vector<SynapseView> synapses_of(snn::SnnNetwork& net) {
  std::vector<SynapseView> out;
  const auto add = [&](const snn::Synapse* s) { out.push_back({&s->weight().value, s}); };
  for (std::int64_t i = 0; i < net.size(); ++i) {
    snn::SpikingLayer& layer = net.layer(i);
    if (auto* weighted = dynamic_cast<snn::SynapticLayer*>(&layer)) {
      add(&weighted->synapse());
    } else if (auto* res = dynamic_cast<snn::SpikingResidualBlock*>(&layer)) {
      add(&res->conv1_synapse());
      add(&res->conv2_synapse());
      if (res->projection_synapse_or_null() != nullptr) {
        add(res->projection_synapse_or_null());
      }
    }
  }
  return out;
}

TEST(ArtifactTest, EvalKeepsReplicasZeroCopyAndSharingOneOperand) {
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    const std::string path =
        temp_path((std::string("artifact_shared_") + to_string(precision) + ".art").c_str());
    auto source = make_vggish_net(17);
    PackOptions opt = pack_options();
    opt.precision = precision;
    pack_network(*source, path, opt);
    auto art = UllsnnArtifact::load(path);
    auto a = art->make_network();
    auto b = art->make_network();

    // Strong analog rows drive every layer dense; all-zero rows and an
    // all-zero batch drive every layer sparse.
    Tensor mixed({4, 2, 4, 4});
    for (std::int64_t i = 0; i < mixed.numel() / 2; ++i) mixed[i] = 4.0F;
    Tensor dense({2, 2, 4, 4}, 4.0F);
    Tensor zeros({2, 2, 4, 4});
    for (snn::SnnNetwork* net : {a.get(), b.get()}) {
      for (const Tensor* batch : {&mixed, &dense, &zeros}) {
        net->reset_state();
        net->forward(*batch, false);
      }
    }

    const std::vector<SynapseView> sa = synapses_of(*a);
    const std::vector<SynapseView> sb = synapses_of(*b);
    ASSERT_EQ(sa.size(), 3U);
    ASSERT_EQ(sb.size(), sa.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      SCOPED_TRACE(std::string(to_string(precision)) + " synapse " + std::to_string(i));
      // Both dispatch paths ran, and neither copied the mapped weight.
      EXPECT_GT(sa[i].stats().dense_samples, 0);
      EXPECT_GT(sa[i].stats().sparse_samples, 0);
      EXPECT_TRUE(sa[i].weight->borrowed());
      EXPECT_TRUE(sb[i].weight->borrowed());
      EXPECT_TRUE(art->contains(sa[i].weight->data()));
      // One operand, prepared at load, serves both replicas.
      ASSERT_NE(sa[i].prepared(), nullptr);
      EXPECT_EQ(sa[i].prepared(), sb[i].prepared());
      EXPECT_EQ(sa[i].prepared()->source(), sa[i].weight->data());
      EXPECT_EQ(sa[i].prepared()->int8_panels() != nullptr,
                precision == Precision::kInt8);
    }
    std::filesystem::remove(path);
  }
}

TEST(ArtifactTest, ProbeAccessorsExposeThePackedCanary) {
  const std::string path = packed_artifact("artifact_probe.art");
  auto art = UllsnnArtifact::load(path);
  const Tensor inputs = art->probe_inputs();
  const Tensor logits = art->probe_logits();
  EXPECT_EQ(inputs.shape(), Shape({2, 2, 4, 4}));
  EXPECT_EQ(logits.dim(0), 2);
  EXPECT_TRUE(inputs.borrowed());
  EXPECT_TRUE(art->contains(inputs.data()));

  // Replaying the probe reproduces the recorded logits bit-for-bit.
  auto replica = art->make_network();
  replica->set_time_steps(art->probe_time_steps());
  replica->reset_state();
  const Tensor replay = replica->forward(inputs, false);
  EXPECT_EQ(std::memcmp(replay.data(), logits.data(),
                        static_cast<std::size_t>(logits.numel()) * sizeof(float)),
            0);
  std::filesystem::remove(path);
}

TEST(ArtifactTest, SameTopologyFingerprintsMatchAcrossRetrains) {
  const std::string p1 = packed_artifact("artifact_fp1.art", 1);
  const std::string p2 = packed_artifact("artifact_fp2.art", 2);
  auto a1 = UllsnnArtifact::load(p1);
  auto a2 = UllsnnArtifact::load(p2);
  // Different weights, same topology: hot-swappable.
  EXPECT_EQ(a1->fingerprint(), a2->fingerprint());

  const std::string p3 = temp_path("artifact_fp3.art");
  auto other = make_resnetish_net(1);
  pack_network(*other, p3, pack_options());
  auto a3 = UllsnnArtifact::load(p3);
  EXPECT_NE(a1->fingerprint(), a3->fingerprint());
  for (const auto& p : {p1, p2, p3}) std::filesystem::remove(p);
}

TEST(ArtifactTest, PackIsAtomicAndOverwritesStaleTemp) {
  const std::string path = temp_path("artifact_atomic.art");
  // A crashed previous pack left a half-written temp file behind.
  write_file(path + ".tmp", {'g', 'a', 'r', 'b', 'a', 'g', 'e'});
  auto net = make_vggish_net(21);
  pack_network(*net, path, pack_options());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_NO_THROW(UllsnnArtifact::load(path));
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Corruption matrix
// ---------------------------------------------------------------------------

TEST(ArtifactCorruptionTest, EverySingleByteFlipIsRejected) {
  const std::string path = packed_artifact("artifact_fuzz_flip.art");
  const std::vector<char> pristine = read_file(path);
  ASSERT_GT(pristine.size(), 256U);
  for (std::size_t offset = 0; offset < pristine.size(); ++offset) {
    std::vector<char> bytes = pristine;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x10);
    write_file(path, bytes);
    try {
      UllsnnArtifact::load(path);
      FAIL() << "flipped byte at offset " << offset << " was accepted";
    } catch (const ArtifactError&) {
      // expected: typed rejection
    }
  }
  write_file(path, pristine);
  EXPECT_NO_THROW(UllsnnArtifact::load(path));
  std::filesystem::remove(path);
}

TEST(ArtifactCorruptionTest, TruncationAtEverySectionBoundaryIsRejected) {
  const std::string path = packed_artifact("artifact_fuzz_trunc.art");
  const std::vector<char> pristine = read_file(path);
  const std::uint64_t size = pristine.size();

  // Boundary set: degenerate sizes, the header edge, the section-table edge,
  // every section's start and end (recovered from the table), and the footer.
  std::vector<std::uint64_t> cuts = {0, 1, kHeaderBytes - 1, kHeaderBytes,
                                     kHeaderBytes + 4 * kSectionEntryBytes,
                                     size - kFooterBytes, size - 1};
  for (std::uint32_t s = 0; s < 4; ++s) {
    std::uint64_t offset = 0, payload = 0;
    std::memcpy(&offset, pristine.data() + kHeaderBytes + s * kSectionEntryBytes + 8,
                sizeof offset);
    std::memcpy(&payload,
                pristine.data() + kHeaderBytes + s * kSectionEntryBytes + 16,
                sizeof payload);
    cuts.push_back(offset);
    cuts.push_back(offset + payload / 2);
    cuts.push_back(offset + payload);
  }
  for (const std::uint64_t keep : cuts) {
    ASSERT_LT(keep, size);
    write_file(path, pristine);
    if (keep == 0) {
      write_file(path, {});
    } else {
      robust::FaultInjector::truncate_file(path, keep);
    }
    try {
      UllsnnArtifact::load(path);
      FAIL() << "file truncated to " << keep << " bytes was accepted";
    } catch (const ArtifactError& e) {
      EXPECT_TRUE(e.code() == ArtifactErrorCode::kTruncated ||
                  e.code() == ArtifactErrorCode::kFooterCorrupt)
          << "truncation to " << keep << " raised " << to_string(e.code());
    }
  }
  std::filesystem::remove(path);
}

TEST(ArtifactCorruptionTest, RandomByteCorruptionViaInjectorIsRejected) {
  const std::string path = packed_artifact("artifact_fuzz_rand.art");
  const std::vector<char> pristine = read_file(path);
  robust::FaultInjector injector(robust::FaultSpec{.seed = 99});
  for (int trial = 0; trial < 64; ++trial) {
    write_file(path, pristine);
    injector.corrupt_random_byte(path);
    EXPECT_THROW(UllsnnArtifact::load(path), ArtifactError) << "trial " << trial;
  }
  std::filesystem::remove(path);
}

TEST(ArtifactCorruptionTest, NotAnArtifactIsBadMagic) {
  const std::string path = temp_path("artifact_not_one.art");
  std::vector<char> junk(256, 'z');
  write_file(path, junk);
  try {
    UllsnnArtifact::load(path);
    FAIL();
  } catch (const ArtifactError& e) {
    EXPECT_EQ(e.code(), ArtifactErrorCode::kBadMagic);
  }
  std::filesystem::remove(path);
}

TEST(ArtifactCorruptionTest, MissingFileIsIo) {
  try {
    UllsnnArtifact::load(temp_path("artifact_never_written.art"));
    FAIL();
  } catch (const ArtifactError& e) {
    EXPECT_EQ(e.code(), ArtifactErrorCode::kIo);
  }
}

/// Recompute the header CRC and whole-file footer CRC after a deliberate
/// field edit, so the *semantic* checks (not the checksums) must reject.
void reseal(std::vector<char>& bytes) {
  std::memset(bytes.data() + 12, 0, 4);
  const std::uint32_t hc = crc32(bytes.data(), kHeaderBytes);
  std::memcpy(bytes.data() + 12, &hc, sizeof hc);
  const std::uint32_t fc = crc32(bytes.data(), bytes.size() - kFooterBytes);
  std::memcpy(bytes.data() + bytes.size() - 12, &fc, sizeof fc);
}

TEST(ArtifactCorruptionTest, FutureFormatVersionIsBadVersion) {
  const std::string path = packed_artifact("artifact_future.art");
  std::vector<char> bytes = read_file(path);
  const std::uint32_t future = 99;
  std::memcpy(bytes.data() + 8, &future, sizeof future);
  reseal(bytes);
  write_file(path, bytes);
  try {
    UllsnnArtifact::load(path);
    FAIL();
  } catch (const ArtifactError& e) {
    EXPECT_EQ(e.code(), ArtifactErrorCode::kBadVersion);
  }
  std::filesystem::remove(path);
}

TEST(ArtifactCorruptionTest, TamperedFingerprintIsCaughtByCrossCheck) {
  // Flip a fingerprint bit but fix up every checksum: only the recompute-
  // and-compare of the parsed architecture can catch it.
  const std::string path = packed_artifact("artifact_tamper_fp.art");
  std::vector<char> bytes = read_file(path);
  bytes[24] = static_cast<char>(bytes[24] ^ 0x01);
  reseal(bytes);
  write_file(path, bytes);
  try {
    UllsnnArtifact::load(path);
    FAIL();
  } catch (const ArtifactError& e) {
    EXPECT_EQ(e.code(), ArtifactErrorCode::kHeaderCorrupt);
  }
  std::filesystem::remove(path);
}

TEST(ArtifactCorruptionTest, ErrorCodesHaveStableNames) {
  EXPECT_STREQ(to_string(ArtifactErrorCode::kTruncated), "truncated");
  EXPECT_STREQ(to_string(ArtifactErrorCode::kArchMismatch), "arch-mismatch");
  EXPECT_STREQ(to_string(SectionKind::kWeights), "weights");
}

// ---------------------------------------------------------------------------
// Borrowed-tensor semantics the artifact relies on
// ---------------------------------------------------------------------------

TEST(ArtifactTest, BorrowedTensorCopiesShareAndDetachOnWrite) {
  const float backing[6] = {1, 2, 3, 4, 5, 6};
  Tensor view = Tensor::borrow({2, 3}, backing);
  EXPECT_TRUE(view.borrowed());
  EXPECT_EQ(view.numel(), 6);
  EXPECT_EQ(static_cast<const Tensor&>(view).data(), backing);

  Tensor copy = view;  // pointer copy, not a payload copy
  EXPECT_TRUE(copy.borrowed());
  EXPECT_EQ(static_cast<const Tensor&>(copy).data(), backing);

  // Mutable access via data() detaches into a private owned payload.
  // (Element accessors at()/operator[] skip the borrow check by contract —
  // they sit in training inner loops — so detaching first is on the caller.)
  copy.data()[0] = 42.0F;
  EXPECT_FALSE(copy.borrowed());
  EXPECT_NE(static_cast<const Tensor&>(copy).data(), backing);
  EXPECT_FLOAT_EQ(copy[0], 42.0F);
  EXPECT_FLOAT_EQ(backing[0], 1.0F);
  EXPECT_TRUE(view.borrowed());  // the original view is untouched
  EXPECT_FLOAT_EQ(copy[1], 2.0F);  // detach copied the borrowed payload
}

}  // namespace
}  // namespace ullsnn::artifact
