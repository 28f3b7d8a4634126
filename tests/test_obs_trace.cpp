#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace coloc::obs {
namespace {

TEST(ScopedSpan, NoOpWithoutSink) {
  TraceSink::uninstall();
  EXPECT_EQ(TraceSink::current(), nullptr);
  {
    ScopedSpan span("orphan", "test");
  }
  // Nothing to assert beyond "did not crash": spans without a sink
  // must record nowhere.
  TraceSink sink;
  sink.install();
  EXPECT_EQ(sink.num_events(), 0u);
  TraceSink::uninstall();
}

TEST(ScopedSpan, RecordsNameCategoryAndDuration) {
  TraceSink sink;
  sink.install();
  {
    ScopedSpan span("outer", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  TraceSink::uninstall();

  const std::vector<TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].category, "test");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_GE(events[0].duration_ns, 1'000'000u);
}

TEST(ScopedSpan, NestingIsRecordedViaDepthAndOrdering) {
  TraceSink sink;
  sink.install();
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan mid("mid");
      { ScopedSpan inner("inner"); }
    }
    { ScopedSpan sibling("sibling"); }
  }
  TraceSink::uninstall();

  const std::vector<TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // events() sorts by start time, longest-first on ties, so parents
  // always precede their children.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].name, "mid");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[2].depth, 2u);
  EXPECT_EQ(events[3].name, "sibling");
  EXPECT_EQ(events[3].depth, 1u);

  // Children are contained within their parent's interval.
  const auto end_ns = [](const TraceEvent& e) {
    return e.start_ns + e.duration_ns;
  };
  for (int i = 1; i <= 2; ++i) {
    EXPECT_GE(events[i].start_ns, events[0].start_ns);
    EXPECT_LE(end_ns(events[i]), end_ns(events[0]));
  }
  EXPECT_GE(events[3].start_ns, end_ns(events[2]));
}

TEST(TraceSink, CollectsSpansFromMultipleThreads) {
  TraceSink sink;
  sink.install();
  constexpr int kThreads = 4;
  constexpr int kSpans = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        ScopedSpan span("worker", "mt");
      }
    });
  }
  for (auto& t : threads) t.join();
  TraceSink::uninstall();

  const std::vector<TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kSpans);
  std::set<std::uint32_t> tids;
  for (const auto& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const TraceEvent& a, const TraceEvent& b) {
        return a.start_ns < b.start_ns;
      }));
}

TEST(TraceSink, ChromeJsonRoundTripsThroughTheJsonReader) {
  TraceSink sink;
  sink.install();
  {
    ScopedSpan outer("campaign", "core");
    { ScopedSpan inner("has,comma and \"quotes\"", "core"); }
  }
  TraceSink::uninstall();

  const std::string path = testing::TempDir() + "coloc_trace_test.json";
  ASSERT_TRUE(sink.write_chrome_json(path));

  const JsonValue doc = json_parse_file(path);
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.size(), 2u);
  const JsonValue& first = events.at(0);
  EXPECT_EQ(first.at("name").string, "campaign");
  EXPECT_EQ(first.at("cat").string, "core");
  EXPECT_EQ(first.at("ph").string, "X");
  EXPECT_TRUE(first.at("ts").is_number());
  EXPECT_TRUE(first.at("dur").is_number());
  EXPECT_DOUBLE_EQ(first.at("args").at("depth").number, 0.0);
  EXPECT_DOUBLE_EQ(events.at(1).at("args").at("depth").number, 1.0);
  // Free-form names survive the JSON escaping intact.
  EXPECT_EQ(events.at(1).at("name").string, "has,comma and \"quotes\"");
  // Span edges ride in args: the inner span's parent is the outer's id.
  EXPECT_DOUBLE_EQ(first.at("args").at("parent").number, 0.0);
  EXPECT_DOUBLE_EQ(events.at(1).at("args").at("parent").number,
                   first.at("args").at("id").number);
  // The inner span starts no earlier and lasts no longer.
  EXPECT_GE(events.at(1).at("ts").number, first.at("ts").number);
  EXPECT_LE(events.at(1).at("dur").number, first.at("dur").number);
}

TEST(ScopedSpan, ExplicitParentLinksAcrossThreads) {
  TraceSink sink;
  sink.install();
  {
    ScopedSpan submitter("submit", "test");
    const std::uint64_t parent = current_span_id();
    EXPECT_NE(parent, 0u);
    std::thread([parent] {
      ScopedSpan task("task", "test", parent);
    }).join();
  }
  TraceSink::uninstall();

  const std::vector<TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  const auto& submit = events[0].name == "submit" ? events[0] : events[1];
  const auto& task = events[0].name == "task" ? events[0] : events[1];
  EXPECT_EQ(submit.parent_id, 0u);
  EXPECT_EQ(task.parent_id, submit.id);
  EXPECT_NE(task.tid, submit.tid);
}

TEST(TraceSink, ConcurrentSpanEmissionResolvesAllEdges) {
  TraceSink sink;
  sink.install();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 25;
  std::uint64_t root_id = 0;
  {
    ScopedSpan root("stage", "test");
    root_id = current_span_id();
    ASSERT_NE(root_id, 0u);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([root_id] {
        for (int i = 0; i < kSpansPerThread; ++i) {
          // The cross-thread edge the thread pool records: the submitting
          // span's id, captured before the fan-out.
          ScopedSpan task("task", "test", root_id);
          // And a lexically nested child on the worker thread.
          ScopedSpan sub("subtask", "test");
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  TraceSink::uninstall();

  const std::vector<TraceEvent> events = sink.events();
  constexpr std::size_t kTasks =
      static_cast<std::size_t>(kThreads) * kSpansPerThread;
  ASSERT_EQ(events.size(), 1u + 2u * kTasks);
  std::map<std::uint64_t, const TraceEvent*> by_id;
  for (const TraceEvent& e : events) {
    EXPECT_TRUE(by_id.emplace(e.id, &e).second) << "duplicate id " << e.id;
  }
  std::size_t root_children = 0;
  std::size_t subtasks = 0;
  for (const TraceEvent& e : events) {
    if (e.parent_id == 0) {
      EXPECT_EQ(e.id, root_id) << e.name << " has no parent";
      continue;
    }
    const auto parent = by_id.find(e.parent_id);
    ASSERT_NE(parent, by_id.end())
        << e.name << " " << e.id << " parent " << e.parent_id;
    if (e.parent_id == root_id) ++root_children;
    if (e.name == "subtask") {
      // Same-thread lexical nesting survives the cross-thread explicit
      // parent of the enclosing task.
      ++subtasks;
      EXPECT_EQ(parent->second->name, "task") << "subtask " << e.id;
    }
  }
  EXPECT_EQ(root_children, kTasks);
  EXPECT_EQ(subtasks, kTasks);
}

TEST(CurrentSpanId, ZeroOutsideAnySpan) {
  TraceSink sink;
  sink.install();
  EXPECT_EQ(current_span_id(), 0u);
  {
    ScopedSpan span("outer");
    EXPECT_NE(current_span_id(), 0u);
  }
  EXPECT_EQ(current_span_id(), 0u);
  TraceSink::uninstall();
}

TEST(TraceCounter, RecordedInChromeJsonAsCounterEvent) {
  TraceSink sink;
  sink.install();
  trace_counter("pool/busy_workers", 3.0);
  { ScopedSpan span("work"); }
  TraceSink::uninstall();

  const std::string json_path = testing::TempDir() + "coloc_counter.json";
  ASSERT_TRUE(sink.write_chrome_json(json_path));
  const JsonValue doc = json_parse_file(json_path);
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  bool saw_counter = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events.at(i);
    if (e.at("ph").string == "C") {
      saw_counter = true;
      EXPECT_EQ(e.at("name").string, "pool/busy_workers");
      EXPECT_DOUBLE_EQ(e.at("args").at("value").number, 3.0);
    }
  }
  EXPECT_TRUE(saw_counter);
}

TEST(TraceCounter, NoOpWithoutSink) {
  TraceSink::uninstall();
  trace_counter("ignored", 1.0);  // must not crash
}

TEST(TraceSink, SpansIgnoreSinksInstalledMidSpan) {
  TraceSink::uninstall();
  TraceSink late;
  {
    ScopedSpan span("started-before-install");
    late.install();
  }
  TraceSink::uninstall();
  // The span captured "no sink" at construction, so nothing is recorded.
  EXPECT_EQ(late.num_events(), 0u);
}

TEST(ThreadIndex, IsStablePerThreadAndUniqueAcrossThreads) {
  const std::uint32_t mine = thread_index();
  EXPECT_EQ(thread_index(), mine);
  std::uint32_t other = mine;
  std::thread([&other] { other = thread_index(); }).join();
  EXPECT_NE(other, mine);
}

}  // namespace
}  // namespace coloc::obs
