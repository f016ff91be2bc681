// Tests for the program model and the catalog synthesizer.
#include <gtest/gtest.h>

#include "src/model/catalog.h"
#include "src/model/program_model.h"

namespace ctmodel {
namespace {

ProgramModel SmallModel() {
  ProgramModel model("test");
  AddBaseTypes(&model);
  TypeDecl base;
  base.name = "A";
  model.AddType(base);
  TypeDecl sub;
  sub.name = "B";
  sub.supertype = "A";
  model.AddType(sub);
  TypeDecl subsub;
  subsub.name = "C";
  subsub.supertype = "B";
  model.AddType(subsub);
  TypeDecl coll;
  coll.name = "List<A>";
  coll.element_types = {"A"};
  model.AddType(coll);
  FieldDecl field;
  field.clazz = "Holder";
  field.name = "a";
  field.type = "A";
  model.AddField(field);
  return model;
}

TEST(ProgramModel, SubtypeTransitivity) {
  ProgramModel model = SmallModel();
  EXPECT_TRUE(model.IsSubtypeOf("C", "A"));
  EXPECT_TRUE(model.IsSubtypeOf("B", "A"));
  EXPECT_TRUE(model.IsSubtypeOf("A", "A"));
  EXPECT_FALSE(model.IsSubtypeOf("A", "B"));
}

TEST(ProgramModel, SubtypesAndCollections) {
  ProgramModel model = SmallModel();
  EXPECT_EQ(model.SubtypesOf("A"), (std::vector<std::string>{"B"}));
  EXPECT_EQ(model.CollectionsOf("A"), (std::vector<std::string>{"List<A>"}));
  EXPECT_TRUE(model.CollectionsOf("C").empty());
}

TEST(ProgramModel, FieldIdDerivedFromClassAndName) {
  ProgramModel model = SmallModel();
  const FieldDecl* field = model.FindField("Holder.a");
  ASSERT_NE(field, nullptr);
  EXPECT_EQ(field->type, "A");
}

TEST(ProgramModel, AccessPointIdsAreSequential) {
  ProgramModel model = SmallModel();
  AccessPointDecl point;
  point.field_id = "Holder.a";
  point.kind = AccessKind::kRead;
  int first = model.AddAccessPoint(point);
  int second = model.AddAccessPoint(point);
  EXPECT_EQ(second, first + 1);
  EXPECT_EQ(model.access_point(first).field_id, "Holder.a");
}

TEST(ProgramModel, IoCounts) {
  ProgramModel model = SmallModel();
  TypeDecl stream;
  stream.name = "Stream";
  stream.closeable = true;
  model.AddType(stream);
  model.AddIoMethod({"Stream", "write"});
  IoPointDecl point;
  point.io_class = "Stream";
  point.io_method = "write";
  point.callsite = "X.y";
  model.AddIoPoint(point);
  EXPECT_EQ(model.NumIoClasses(), 1);
  EXPECT_EQ(model.NumIoMethods(), 1);
  EXPECT_EQ(model.NumIoPoints(), 1);
}

CatalogSpec TestSpec() {
  CatalogSpec spec;
  spec.packages = {"p.q", "r.s"};
  spec.stems = {"Foo", "Bar"};
  spec.suffixes = {"Impl", "Service"};
  spec.num_classes = 50;
  spec.metainfo_field_types = {"A"};
  spec.holders_per_metainfo_type = 3;
  spec.seed = 99;
  return spec;
}

TEST(Catalog, DeterministicForSameSeed) {
  ProgramModel a("a");
  TypeDecl meta;
  meta.name = "A";
  a.AddType(meta);
  PopulateCatalog(&a, TestSpec());

  ProgramModel b("b");
  b.AddType(meta);
  PopulateCatalog(&b, TestSpec());

  ASSERT_EQ(a.NumTypes(), b.NumTypes());
  ASSERT_EQ(a.NumAccessPoints(), b.NumAccessPoints());
  for (int i = 0; i < a.NumTypes(); ++i) {
    EXPECT_EQ(a.types()[i].name, b.types()[i].name);
  }
}

TEST(Catalog, ProducesHoldersWithMetaInfoFields) {
  ProgramModel model("m");
  TypeDecl meta;
  meta.name = "A";
  model.AddType(meta);
  PopulateCatalog(&model, TestSpec());
  int holders = 0;
  for (const auto& field : model.fields()) {
    if (field.type == "A") {
      ++holders;
    }
  }
  EXPECT_EQ(holders, 3);
}

TEST(Catalog, EntriesAreSyntheticAndCarryPruningAttributes) {
  ProgramModel model("m");
  TypeDecl meta;
  meta.name = "A";
  model.AddType(meta);
  PopulateCatalog(&model, TestSpec());
  int synthetic = 0;
  int unused = 0;
  int sanity = 0;
  for (const auto& point : model.access_points()) {
    EXPECT_TRUE(point.synthetic);
    EXPECT_FALSE(point.executable);
    ++synthetic;
    unused += point.value_unused ? 1 : 0;
    sanity += point.sanity_checked ? 1 : 0;
  }
  EXPECT_GT(synthetic, 50);
  EXPECT_GT(unused, 0);
  EXPECT_GT(sanity, 0);
}

TEST(Catalog, SomeClassesAreCloseable) {
  ProgramModel model("m");
  TypeDecl meta;
  meta.name = "A";
  model.AddType(meta);
  CatalogSpec spec = TestSpec();
  spec.num_classes = 200;
  PopulateCatalog(&model, spec);
  EXPECT_GT(model.NumIoClasses(), 0);
  EXPECT_GT(model.NumIoPoints(), 0);
}

TEST(Catalog, BaseTypesAreMarked) {
  ProgramModel model("m");
  AddBaseTypes(&model);
  const TypeDecl* str = model.FindType("java.lang.String");
  ASSERT_NE(str, nullptr);
  EXPECT_TRUE(str->is_base);
  const TypeDecl* file = model.FindType("java.io.File");
  ASSERT_NE(file, nullptr);
  EXPECT_TRUE(file->is_base);
}

}  // namespace
}  // namespace ctmodel
