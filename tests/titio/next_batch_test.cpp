// The ActionSource::next_batch contract, for every source: concatenated
// spans equal the next() sequence, each error surfaces at the same action
// index (with the same message), skipped_actions() agrees, and a span stays
// intact while other ranks pull.  The replay loops consume next_batch, so
// this is what keeps a batched replay identical to a per-action one.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "base/binio.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "ckpt/checkpoint.hpp"
#include "support/temp_dir.hpp"
#include "tit/trace.hpp"
#include "titio/reader.hpp"
#include "titio/shared.hpp"
#include "titio/writer.hpp"

namespace tir::titio {
namespace {

namespace fs = std::filesystem;

constexpr int kRanks = 3;

std::vector<char> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const fs::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!bytes.empty()) out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Computes with varint and f64 volumes, p2p with partners and collectives
/// with a second volume, so actions have different byte widths.
tit::Trace sample_trace(int actions_per_rank) {
  tit::Trace trace(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    for (int i = 0; i < actions_per_rank; ++i) {
      switch (i % 4) {
        case 0:
          trace.push({tit::ActionType::Compute, r, -1, 1000.0 * (i + 1) + 0.25 * r, 0.0});
          break;
        case 1:
          trace.push({tit::ActionType::Send, r, (r + 1) % kRanks, 64.0 * i, 0.0});
          break;
        case 2:
          trace.push({tit::ActionType::Recv, r, (r + kRanks - 1) % kRanks, 64.0 * (i - 1), 0.0});
          break;
        default:
          trace.push({tit::ActionType::AllReduce, r, -1, 8.0, 1e5 + i});
          break;
      }
    }
  }
  return trace;
}

class NextBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("next_batch");
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write(const std::string& name, const tit::Trace& trace, std::uint32_t frame_actions) {
    const fs::path path = dir_ / (name + ".titb");
    write_binary_trace(trace, path.string(), WriterOptions{frame_actions});
    return path;
  }

  fs::path dir_;
};

/// What a drain observed: delivered actions and errors, in order.
struct Event {
  bool error = false;
  tit::Action action{};
  std::string what;
  bool operator==(const Event&) const = default;
};

/// Drain one rank through `pull` (which appends what one pull delivered and
/// returns false at the end of the stream), recording errors in place and
/// pulling on after them; a sticky error ends the drain after three repeats.
std::vector<Event> drain(const std::function<bool(std::vector<Event>&)>& pull) {
  std::vector<Event> events;
  for (int errors = 0; errors < 3;) {
    try {
      if (!pull(events)) break;
    } catch (const Error& e) {
      events.push_back(Event{true, {}, e.what()});
      ++errors;
    }
  }
  return events;
}

std::vector<Event> drain_next(ActionSource& source, int rank) {
  return drain([&](std::vector<Event>& events) {
    tit::Action a;
    if (!source.next(rank, a)) return false;
    events.push_back(Event{false, a, {}});
    return true;
  });
}

std::vector<Event> drain_batches(ActionSource& source, int rank) {
  return drain([&](std::vector<Event>& events) {
    const std::span<const tit::Action> span = source.next_batch(rank);
    for (const tit::Action& a : span) events.push_back(Event{false, a, {}});
    return !span.empty();
  });
}

/// Both drains of every rank agree, and so does the skipped count.
void expect_same_delivery(const std::function<std::unique_ptr<ActionSource>()>& open,
                          const std::string& what) {
  std::unique_ptr<ActionSource> by_action = open();
  std::unique_ptr<ActionSource> by_batch = open();
  for (int r = 0; r < by_action->nprocs(); ++r) {
    EXPECT_EQ(drain_next(*by_action, r), drain_batches(*by_batch, r)) << what << " rank " << r;
  }
  EXPECT_EQ(by_action->skipped_actions(), by_batch->skipped_actions()) << what;
}

/// For each rank of a fresh source: pull one span, drain every other rank
/// to its end, and check the span still holds what it held when served.
void expect_spans_survive_other_ranks(
    const std::function<std::unique_ptr<ActionSource>()>& open) {
  for (int r = 0; r < open()->nprocs(); ++r) {
    std::unique_ptr<ActionSource> source = open();
    const std::span<const tit::Action> span = source->next_batch(r);
    ASSERT_FALSE(span.empty());
    const std::vector<tit::Action> copy(span.begin(), span.end());
    for (int other = 0; other < source->nprocs(); ++other) {
      if (other == r) continue;
      while (!source->next_batch(other).empty()) {
      }
    }
    EXPECT_TRUE(std::equal(span.begin(), span.end(), copy.begin(), copy.end())) << "rank " << r;
  }
}

/// The payload of rank `rank`'s first frame inside the file image, and the
/// byte offsets of its actions' starts.
struct FramePatch {
  std::uint8_t* payload;
  std::size_t bytes;
  std::vector<std::size_t> starts;
};

FramePatch first_frame(std::vector<char>& image, const fs::path& path, int rank) {
  const std::vector<FrameRef> frames = Reader(path.string()).frames();
  for (const FrameRef& frame : frames) {
    if (frame.rank != static_cast<std::uint32_t>(rank)) continue;
    auto* const base = reinterpret_cast<std::uint8_t*>(image.data());
    std::size_t pos = static_cast<std::size_t>(frame.offset) + 1;  // kind byte
    for (int k = 0; k < 3; ++k) binio::get_varint(base, image.size(), pos);
    FramePatch patch{base + pos, static_cast<std::size_t>(frame.payload_bytes), {}};
    std::size_t p = 0;
    for (std::uint64_t i = 0; i < frame.actions; ++i) {
      patch.starts.push_back(p);
      decode_action(patch.payload, patch.bytes, p, rank);
    }
    return patch;
  }
  throw std::runtime_error("no frame of that rank");
}

void reseal(const FramePatch& patch) {
  const std::uint32_t crc = binio::crc32(patch.payload, patch.bytes);
  for (int b = 0; b < 4; ++b) {
    patch.payload[patch.bytes + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(crc >> (8 * b));
  }
}

std::function<std::unique_ptr<ActionSource>()> reader_of(const fs::path& path, bool recover,
                                                          std::size_t batch = 64) {
  return [path, recover, batch] {
    ReaderOptions opt;
    opt.recover = recover;
    opt.decode_batch = batch;
    return std::make_unique<Reader>(path.string(), opt);
  };
}

TEST_F(NextBatch, ReaderSpansConcatenateToTheNextSequence) {
  const fs::path path = write("clean", sample_trace(300), 64);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{1000}}) {
    expect_same_delivery(reader_of(path, false, batch), "batch " + std::to_string(batch));
  }
  // Mixing the two pulls on one cursor keeps the sequence.
  Reader mixed(path.string());
  Reader plain(path.string());
  std::vector<tit::Action> got;
  std::vector<tit::Action> want;
  tit::Action a;
  for (bool by_batch = true;; by_batch = !by_batch) {
    if (by_batch) {
      const std::span<const tit::Action> span = mixed.next_batch(0);
      if (span.empty()) break;
      got.insert(got.end(), span.begin(), span.end());
    } else {
      if (!mixed.next(0, a)) break;
      got.push_back(a);
    }
  }
  while (plain.next(0, a)) want.push_back(a);
  EXPECT_EQ(got, want);
}

TEST_F(NextBatch, ReaderSpanSurvivesOtherRanksPulls) {
  const fs::path path = write("interleave", sample_trace(300), 64);
  expect_spans_survive_other_ranks(reader_of(path, false));
}

TEST_F(NextBatch, ReaderMidFrameDecodeErrorSurfacesAtTheSameIndex) {
  const fs::path path = write("decode_error", sample_trace(100), 32);
  std::vector<char> image = slurp(path);
  const FramePatch patch = first_frame(image, path, 1);
  patch.payload[patch.starts[9]] = 0xFF;  // no such action type
  reseal(patch);
  spit(path, image);
  expect_same_delivery(reader_of(path, false), "strict");
  expect_same_delivery(reader_of(path, true), "recover");
  // Strict: nine actions, then the error, which stays.
  Reader reader(path.string());
  const std::vector<Event> events = drain_batches(reader, 1);
  ASSERT_EQ(events.size(), 12u);
  EXPECT_FALSE(events[8].error);
  EXPECT_TRUE(events[9].error);
}

TEST_F(NextBatch, ReaderHoldsBackTheLastActionOfAFrameWithTrailingBytes) {
  const fs::path path = write("trailing", sample_trace(100), 32);
  std::vector<char> image = slurp(path);
  const FramePatch patch = first_frame(image, path, 0);
  // The frame's last action (an allreduce) forgets its second volume: the
  // varint stays behind as trailing bytes under a valid CRC.
  const std::size_t last = patch.starts.back();
  ASSERT_EQ(patch.payload[last], static_cast<std::uint8_t>(tit::ActionType::AllReduce));
  patch.payload[last + 1] &= static_cast<std::uint8_t>(~kHasVolume2);
  reseal(patch);
  spit(path, image);
  expect_same_delivery(reader_of(path, false), "strict");
  expect_same_delivery(reader_of(path, true), "recover");
  // Strict: the ParseError replaces exactly the frame's last action, and
  // the stream goes on with the next frame.
  Reader reader(path.string());
  const std::vector<Event> events = drain_batches(reader, 0);
  ASSERT_EQ(events.size(), 100u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].error, i == 31) << i;
  }
}

TEST_F(NextBatch, ReaderAgreesOnTheFaultInjectionCorpus) {
  const fs::path clean = write("corpus", sample_trace(120), 16);
  const std::vector<char> original = slurp(clean);
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    rng::Sequence rand(seed);
    std::vector<char> bytes = original;
    switch (rand.next_u64() % 3) {
      case 0:  // bit flips anywhere
        for (int i = 0, flips = 1 + static_cast<int>(rand.next_u64() % 8); i < flips; ++i) {
          const std::size_t at = rand.next_u64() % bytes.size();
          bytes[at] = static_cast<char>(bytes[at] ^ (1u << (rand.next_u64() % 8)));
        }
        break;
      case 1:  // truncation
        bytes.resize(rand.next_u64() % bytes.size());
        break;
      default: {  // a zeroed range
        const std::size_t at = rand.next_u64() % bytes.size();
        const std::size_t len = std::min<std::size_t>(1 + rand.next_u64() % 64, bytes.size() - at);
        std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(at), len, '\0');
        break;
      }
    }
    const fs::path path = dir_ / ("damaged_" + std::to_string(seed) + ".titb");
    spit(path, bytes);
    for (const bool recover : {false, true}) {
      try {
        Reader probe(path.string());
      } catch (const Error&) {
        continue;  // header, footer or index damage: no stream to compare
      }
      expect_same_delivery(reader_of(path, recover),
                           "seed " + std::to_string(seed) + (recover ? " recover" : " strict"));
    }
  }
}

TEST_F(NextBatch, InMemorySourcesServeTheirVectors) {
  const tit::Trace trace = sample_trace(50);
  expect_same_delivery([&] { return std::make_unique<MemorySource>(trace); }, "memory");
  const SharedTrace shared(trace);
  expect_same_delivery([&] { return std::make_unique<SharedTrace::Cursor>(shared.cursor()); },
                       "shared");

  expect_spans_survive_other_ranks([&] { return std::make_unique<MemorySource>(trace); });
  expect_spans_survive_other_ranks(
      [&] { return std::make_unique<SharedTrace::Cursor>(shared.cursor()); });

  // A seek positions the next span at the suffix.
  SharedTrace::Cursor cursor = shared.cursor();
  cursor.seek({3, 0, 50});
  const std::span<const tit::Action> suffix = cursor.next_batch(0);
  ASSERT_EQ(suffix.size(), 47u);
  EXPECT_EQ(suffix.front(), trace.actions(0)[3]);
  EXPECT_EQ(cursor.next_batch(1).size(), 50u);
  EXPECT_TRUE(cursor.next_batch(2).empty());
}

TEST_F(NextBatch, SharedTraceOfARecoveredLoadReportsTheSameSkips) {
  const fs::path path = write("shared_recover", sample_trace(100), 32);
  std::vector<char> image = slurp(path);
  const FramePatch patch = first_frame(image, path, 2);
  patch.payload[patch.starts[4]] = 0xFF;
  reseal(patch);
  spit(path, image);
  ReaderOptions opt;
  opt.recover = true;
  const SharedTrace shared = SharedTrace::load(path.string(), opt);
  ASSERT_GT(shared.skipped_actions(), 0u);
  expect_same_delivery([&] { return std::make_unique<SharedTrace::Cursor>(shared.cursor()); },
                       "shared recover");
}

TEST_F(NextBatch, CheckpointRecorderDeliversOneActionAtATime) {
  const tit::Trace trace = sample_trace(40);
  MemorySource inner_a(trace);
  MemorySource inner_b(trace);
  ckpt::CheckpointRecorder by_action(inner_a, nullptr, core::Backend::Smpi, {});
  ckpt::CheckpointRecorder by_batch(inner_b, nullptr, core::Backend::Smpi, {});
  for (int r = 0; r < kRanks; ++r) {
    std::vector<tit::Action> got;
    for (std::span<const tit::Action> span = by_batch.next_batch(r); !span.empty();
         span = by_batch.next_batch(r)) {
      EXPECT_EQ(span.size(), 1u);  // the pending action is the one replayed
      got.insert(got.end(), span.begin(), span.end());
    }
    std::vector<tit::Action> want;
    tit::Action a;
    while (by_action.next(r, a)) want.push_back(a);
    EXPECT_EQ(got, want) << "rank " << r;
  }
  EXPECT_EQ(by_action.skipped_actions(), by_batch.skipped_actions());

  // A span is the rank's pending action, untouched by other ranks' pulls.
  by_batch.rewind();
  const std::span<const tit::Action> span = by_batch.next_batch(0);
  ASSERT_EQ(span.size(), 1u);
  const tit::Action first = span.front();
  while (!by_batch.next_batch(1).empty()) {
  }
  while (!by_batch.next_batch(2).empty()) {
  }
  EXPECT_EQ(span.front(), first);
  EXPECT_EQ(first, trace.actions(0).front());
}

}  // namespace
}  // namespace tir::titio
