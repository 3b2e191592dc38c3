// Tests covering the full five-application port (§5.1: 27 serverless
// functions): the two non-Table-1 applications (image board, second forum)
// must be fully analyzable, functionally correct, workload-valid, and run
// end to end through a Radical deployment.

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "tests/deployment_profile.h"

namespace radical {
namespace {

class FiveAppsTest : public ProfiledTest {
 protected:
  // Only NewAppsRunEndToEndThroughRadical builds a deployment; the analysis
  // and workload tests run once, on the singleton profile.
  FiveAppsTest() : ProfiledTest(kDeploymentProfiles[0]) {}
  explicit FiveAppsTest(const DeploymentProfile& profile) : ProfiledTest(profile) {}

  // Seeds an app into a bare store via a minimal AppService adapter.
  void SeedInto(const AppSpec& app, VersionedStore* store) {
    struct SeedOnly : AppService {
      VersionedStore* store;
      explicit SeedOnly(VersionedStore* s) : store(s) {}
      void Invoke(Region, const std::string&, std::vector<Value>,
                  std::function<void(Value)>) override {}
      const AnalyzedFunction& RegisterFunction(const FunctionDef& fn) override {
        static Analyzer analyzer(&HostRegistry::Standard());
        static FunctionRegistry registry(&analyzer);
        return registry.Register(fn);
      }
      void Seed(const Key& key, const Value& value) override { store->Seed(key, value); }
      ExternalServiceRegistry& externals() override {
        static ExternalServiceRegistry registry;
        return registry;
      }
    } seeder(store);
    app.seed(&seeder);
  }

  Analyzer analyzer_{&HostRegistry::Standard()};
  Interpreter interp_{&HostRegistry::Standard()};
};

TEST_F(FiveAppsTest, TwentySevenFunctionsAcrossFiveApps) {
  size_t total = 0;
  for (const AppSpec& app : AllFiveApps()) {
    total += app.functions.size();
  }
  EXPECT_EQ(total, 27u);  // §5.1: "27 serverless functions across the five
                          // applications".
}

TEST_F(FiveAppsTest, EveryFunctionAnalyzable) {
  // §5.1: "The static analyzer successfully handled all 27 functions, three
  // of which required the optimization for dependent reads."
  size_t dependent = 0;
  for (const AppSpec& app : AllFiveApps()) {
    for (const FunctionSpec& fn : app.functions) {
      const AnalyzedFunction analyzed = analyzer_.Analyze(fn.def);
      EXPECT_TRUE(analyzed.analyzable) << fn.def.name << ": " << analyzed.failure_reason;
      EXPECT_EQ(analyzed.has_dependent_reads, fn.dependent_reads) << fn.def.name;
      dependent += analyzed.has_dependent_reads ? 1 : 0;
    }
  }
  EXPECT_EQ(dependent, 3u);  // social_post, hotel_search, danbooru_search.
}

TEST_F(FiveAppsTest, AllFiveWorkloadMixesSumToHundred) {
  for (const AppSpec& app : AllFiveApps()) {
    double sum = 0.0;
    for (const FunctionSpec& fn : app.functions) {
      sum += fn.workload_pct;
    }
    EXPECT_NEAR(sum, 100.0, 1e-9) << app.name;
  }
}

TEST_F(FiveAppsTest, DanbooruSearchReturnsTaggedImages) {
  const AppSpec app = MakeDanbooruApp();
  VersionedStore store;
  SeedInto(app, &store);
  const ExecResult result =
      interp_.Execute(app.Find("danbooru_search")->def, {Value("t3")}, &store);
  ASSERT_TRUE(result.ok()) << result.status.message();
  ASSERT_TRUE(result.return_value.is_list());
  EXPECT_FALSE(result.return_value.AsList().empty());
  // Every id in the tag index carries the searched tag modulo seeding rule.
  EXPECT_EQ(result.return_value.AsList().front(), Value("img3"));
}

TEST_F(FiveAppsTest, DanbooruUploadIndexesAllTags) {
  const AppSpec app = MakeDanbooruApp();
  VersionedStore store;
  SeedInto(app, &store);
  const ValueList tag_list{Value("t1"), Value("t2")};
  const ExecResult result = interp_.Execute(
      app.Find("danbooru_upload")->def,
      {Value("u1"), Value("newimg"), Value("fresh"), Value(tag_list)}, &store);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(store.Peek("image:newimg")->value, Value("fresh"));
  for (const Value& t : tag_list) {
    const ValueList index = store.Peek("tagindex:" + t.AsString())->value.AsList();
    EXPECT_EQ(index.back(), Value("newimg")) << t.AsString();
  }
  EXPECT_EQ(store.Peek("uploads:u1")->value.AsList().back(), Value("newimg"));
}

TEST_F(FiveAppsTest, DanbooruFavoriteWritesPerUserRow) {
  const AppSpec app = MakeDanbooruApp();
  VersionedStore store;
  SeedInto(app, &store);
  interp_.Execute(app.Find("danbooru_favorite")->def, {Value("u5"), Value("img9")}, &store);
  EXPECT_EQ(store.Peek("fav:img9:u5")->value, Value(static_cast<int64_t>(1)));
}

TEST_F(FiveAppsTest, DanbooruTagUpdatesBothSides) {
  const AppSpec app = MakeDanbooruApp();
  VersionedStore store;
  SeedInto(app, &store);
  interp_.Execute(app.Find("danbooru_tag")->def,
                  {Value("u1"), Value("img4"), Value("t7")}, &store);
  EXPECT_EQ(store.Peek("tags:img4")->value.AsList().back(), Value("t7"));
  EXPECT_EQ(store.Peek("tagindex:t7")->value.AsList().back(), Value("img4"));
}

TEST_F(FiveAppsTest, DiscourseCreateLandsOnCategoryPage) {
  const AppSpec app = MakeDiscourseApp();
  VersionedStore store;
  SeedInto(app, &store);
  interp_.Execute(app.Find("discourse_create")->def,
                  {Value("u1"), Value("c2"), Value("nt1"), Value("big news")}, &store);
  EXPECT_EQ(store.Peek("topic:nt1")->value, Value("u1: big news"));
  EXPECT_EQ(store.Peek("category:c2")->value.AsList().back(), Value("nt1 big news"));
}

TEST_F(FiveAppsTest, DiscourseReplyAppends) {
  const AppSpec app = MakeDiscourseApp();
  VersionedStore store;
  SeedInto(app, &store);
  interp_.Execute(app.Find("discourse_reply")->def,
                  {Value("u2"), Value("topic7"), Value("agreed")}, &store);
  EXPECT_EQ(store.Peek("replies:topic7")->value.AsList().back(), Value("u2: agreed"));
}

TEST_F(FiveAppsTest, DiscourseViewTracksRead) {
  const AppSpec app = MakeDiscourseApp();
  VersionedStore store;
  SeedInto(app, &store);
  const ExecResult result = interp_.Execute(app.Find("discourse_view")->def,
                                            {Value("u3"), Value("topic5")}, &store);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(store.Peek("tracking:topic5:u3")->value, Value(static_cast<int64_t>(1)));
  EXPECT_EQ(result.return_value.AsList()[0], Value("body of topic5"));
}

TEST_F(FiveAppsTest, NewAppWorkloadInputsAreValid) {
  for (const AppSpec& app : {MakeDanbooruApp(), MakeDiscourseApp()}) {
    VersionedStore store;
    SeedInto(app, &store);
    WorkloadFn workload = app.make_workload();
    Rng rng(4321);
    for (int i = 0; i < 300; ++i) {
      const RequestSpec spec = workload(rng);
      const FunctionSpec* fn = app.Find(spec.function);
      ASSERT_NE(fn, nullptr) << spec.function;
      const ExecResult result = interp_.Execute(fn->def, spec.inputs, &store);
      EXPECT_TRUE(result.ok()) << spec.function << ": " << result.status.message();
    }
  }
}

PROFILE_TEST(FiveAppsTest, NewAppsRunEndToEndThroughRadical) {
  for (const AppSpec& app : {MakeDanbooruApp(), MakeDiscourseApp()}) {
    Simulator sim(9292);
    Network net(&sim, LatencyMatrix::PaperDefault());
    ProfiledDeployment radical(profile(), &sim, &net, RadicalConfig{}, DeploymentRegions());
    app.RegisterAll(&radical);
    app.seed(&radical);
    radical.WarmCaches();
    WorkloadFn workload = app.make_workload();
    Rng rng(777);
    int completed = 0;
    const int total = 120;
    for (int i = 0; i < total; ++i) {
      const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
      RequestSpec spec = workload(rng);
      const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(5)));
      sim.Schedule(at, [&, region, spec = std::move(spec)]() mutable {
        radical.Invoke(region, spec.function, std::move(spec.inputs),
                       [&](Value) { ++completed; });
      });
    }
    sim.Run();
    EXPECT_EQ(completed, total) << app.name;
    EXPECT_TRUE(radical.server().idle()) << app.name;
    EXPECT_GT(radical.server().ValidationSuccessRate(), 0.8) << app.name;
  }
}

TEST_F(FiveAppsTest, LoginIsReusedAcrossApplications) {
  // §5.1's function reuse: the pbkdf2 handlers of all five apps share the
  // same body shape and behave identically.
  VersionedStore store;
  store.Seed("user:u1:pwhash", Value(PasswordHash("pwu1")));
  for (const AppSpec& app : AllFiveApps()) {
    for (const FunctionSpec& fn : app.functions) {
      if (fn.def.name.find("login") == std::string::npos) {
        continue;
      }
      const ExecResult good =
          interp_.Execute(fn.def, {Value("u1"), Value("pwu1")}, &store);
      EXPECT_EQ(good.return_value, Value(static_cast<int64_t>(1))) << fn.def.name;
      const ExecResult bad =
          interp_.Execute(fn.def, {Value("u1"), Value("nope")}, &store);
      EXPECT_EQ(bad.return_value, Value(static_cast<int64_t>(0))) << fn.def.name;
    }
  }
}

}  // namespace
}  // namespace radical
