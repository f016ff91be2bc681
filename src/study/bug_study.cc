#include "src/study/bug_study.h"

namespace ctstudy {

const std::vector<StudiedBug>& StudiedBugs() {
  static const std::vector<StudiedBug>* bugs = new std::vector<StudiedBug>{
      // --- Hadoop2 (Table 1) -------------------------------------------------
      {"YARN-8664", "Hadoop2", "AppAttemptId", Scenario::kPreRead, true, "", false},
      {"YARN-2273", "Hadoop2", "NodeId", Scenario::kPreRead, true, "", false},
      {"YARN-4227", "Hadoop2", "NodeId", Scenario::kPreRead, true, "", false},
      {"YARN-5195", "Hadoop2", "NodeId", Scenario::kPreRead, true, "", false},
      {"YARN-8233", "Hadoop2", "NodeId", Scenario::kPreRead, true, "", false},
      {"YARN-5918", "Hadoop2", "NodeId", Scenario::kPreRead, true, "", true},
      {"YARN-7007", "Hadoop2", "ApplicationId", Scenario::kPreRead, true, "", false},
      {"YARN-7591", "Hadoop2", "ApplicationId", Scenario::kPreRead, true, "", false},
      {"YARN-8222", "Hadoop2", "ApplicationId", Scenario::kPreRead, true, "", false},
      {"YARN-4355", "Hadoop2", "ApplicationId", Scenario::kPreRead, true, "", false},
      {"YARN-4502", "Hadoop2", "AppState", Scenario::kPreRead, false, "accessed variable not logged",
       false},
      {"MR-3596", "Hadoop2", "ContainerId", Scenario::kPreRead, true, "", false},
      {"YARN-4152", "Hadoop2", "ContainerId", Scenario::kPreRead, true, "", false},
      {"MR-4833", "Hadoop2", "ContainerId", Scenario::kPostWrite, true, "", false},
      {"MR-3031", "Hadoop2", "ContainerId", Scenario::kPostWrite, true, "", false},
      {"MR-4099", "Hadoop2", "File", Scenario::kPreRead, true, "", false},
      {"MR-3858", "Hadoop2", "TaskAttemptId", Scenario::kPostWrite, true, "", true},
      // --- HDFS ---------------------------------------------------------------
      {"HDFS-6231", "HDFS", "DatanodeInfo", Scenario::kPreRead, true, "", false},
      {"HDFS-3701", "HDFS", "DatanodeInfo", Scenario::kPreRead, true, "", false},
      {"HDFS-4596", "HDFS", "File", Scenario::kPreRead, false,
       "MD5 file name not associated to any node", false},
      {"HDFS-8240", "HDFS", "BPOfferService", Scenario::kPreRead, true, "", false},
      {"HDFS-5014", "HDFS", "BPOfferService", Scenario::kPostWrite, true, "", false},
      {"HDFS-4404", "HDFS", "NameNode", Scenario::kPostWrite, true, "", false},
      {"HDFS-3031", "HDFS", "NameNode", Scenario::kPostWrite, true, "", false},
      // --- HBase --------------------------------------------------------------
      {"HBASE-4539", "HBase", "RegionTransition", Scenario::kPreRead, true, "", false},
      {"HBASE-6070", "HBase", "RegionTransition", Scenario::kPreRead, true, "", false},
      {"HBASE-10090", "HBase", "RegionTransition", Scenario::kPostWrite, true, "", false},
      {"HBASE-19335", "HBase", "RegionTransition", Scenario::kPostWrite, true, "", false},
      {"HBASE-4540", "HBase", "HRegion", Scenario::kPreRead, true, "", false},
      {"HBASE-3365", "HBase", "HRegion", Scenario::kPreRead, true, "", false},
      {"HBASE-5927", "HBase", "HRegion", Scenario::kPreRead, true, "", false},
      {"HBASE-5155", "HBase", "HRegion", Scenario::kPostWrite, true, "", false},
      {"HBASE-3617", "HBase", "HRegionServer", Scenario::kPreRead, true, "", false},
      {"HBASE-3874", "HBase", "HRegionServer", Scenario::kPreRead, true, "", false},
      {"HBASE-3023", "HBase", "HRegionServer", Scenario::kPreRead, true, "", false},
      {"HBASE-3283", "HBase", "HRegionServer", Scenario::kPreRead, true, "", false},
      {"HBASE-3362", "HBase", "HRegionServer", Scenario::kPreRead, true, "", false},
      {"HBASE-3024", "HBase", "HRegionServer", Scenario::kPreRead, true, "", false},
      {"HBASE-18014", "HBase", "HRegionServer", Scenario::kPreRead, true, "", false},
      {"HBASE-14536", "HBase", "HRegionServer", Scenario::kPreRead, true, "", false},
      {"HBASE-14621", "HBase", "HRegionServer", Scenario::kPreRead, false,
       "accessed variable not logged", false},
      {"HBASE-13546", "HBase", "HRegionServer", Scenario::kPreRead, false,
       "accessed variable not logged", false},
      {"HBASE-10272", "HBase", "HRegionServer", Scenario::kPreRead, true, "", false},
      {"HBASE-2525", "HBase", "HRegionServer", Scenario::kPostWrite, true, "", false},
      {"HBASE-5063", "HBase", "HRegionServer", Scenario::kPostWrite, true, "", false},
      {"HBASE-8519", "HBase", "HRegionServer", Scenario::kPostWrite, true, "", false},
      {"HBASE-2797", "HBase", "HRegionServer", Scenario::kPostWrite, true, "", false},
      {"HBASE-7111", "HBase", "ZNode", Scenario::kPreRead, false,
       "meta-info in lower-layer ZooKeeper, not associated to target node", false},
      {"HBASE-5722", "HBase", "ZNode", Scenario::kPreRead, false,
       "meta-info in lower-layer ZooKeeper, not associated to target node", false},
      {"HBASE-5635", "HBase", "ZNode", Scenario::kPostWrite, false,
       "meta-info in lower-layer ZooKeeper, not associated to target node", false},
      {"HBASE-3722", "HBase", "File", Scenario::kPostWrite, true, "", false},
      // --- ZooKeeper ------------------------------------------------------------
      {"ZK-569", "ZooKeeper", "ZNode", Scenario::kPreRead, true, "", false},
      // --- 14 non-timing-sensitive bugs (§2, trivially triggered) ---------------
      {"MR-3463", "Hadoop2", "-", Scenario::kNotTimingSensitive, true, "", false},
      {"ZK-131", "ZooKeeper", "-", Scenario::kNotTimingSensitive, true, "", false},
      {"YARN-2816", "Hadoop2", "-", Scenario::kNotTimingSensitive, true, "", false},
      {"YARN-3103", "Hadoop2", "-", Scenario::kNotTimingSensitive, true, "", false},
      {"MR-5476", "Hadoop2", "-", Scenario::kNotTimingSensitive, true, "", false},
      {"MR-6190", "Hadoop2", "-", Scenario::kNotTimingSensitive, true, "", false},
      {"HDFS-3440", "HDFS", "-", Scenario::kNotTimingSensitive, true, "", false},
      {"HDFS-5283", "HDFS", "-", Scenario::kNotTimingSensitive, true, "", false},
      {"HDFS-6289", "HDFS", "-", Scenario::kNotTimingSensitive, true, "", false},
      {"HBASE-4088", "HBase", "-", Scenario::kNotTimingSensitive, true, "", false},
      {"HBASE-6060", "HBase", "-", Scenario::kNotTimingSensitive, true, "", false},
      {"HBASE-8912", "HBase", "-", Scenario::kNotTimingSensitive, true, "", false},
      {"ZK-1049", "ZooKeeper", "-", Scenario::kNotTimingSensitive, true, "", false},
      {"ZK-1653", "ZooKeeper", "-", Scenario::kNotTimingSensitive, true, "", false},
  };
  return *bugs;
}

StudySummary Summarize() {
  StudySummary summary;
  for (const auto& bug : StudiedBugs()) {
    ++summary.total;
    if (bug.scenario == Scenario::kNotTimingSensitive) {
      ++summary.non_timing_sensitive;
    } else {
      ++summary.timing_sensitive;
      ++summary.per_system[bug.system];
      ++summary.per_metainfo[bug.metainfo];
      if (bug.scenario == Scenario::kPreRead) {
        ++summary.pre_read;
      } else {
        ++summary.post_write;
      }
    }
    if (bug.reproduced_by_paper) {
      ++summary.reproduced_by_paper;
    }
  }
  return summary;
}

const std::vector<FixComplexityRow>& FixComplexity() {
  static const std::vector<FixComplexityRow>* rows = new std::vector<FixComplexityRow>{
      {"CREB bugs", 117.0, 4.0, 92.0, 26.0},
      {"New bugs", 114.8, 3.8, 16.8, 8.6},
  };
  return *rows;
}

const std::vector<KubernetesBug>& KubernetesBugs() {
  static const std::vector<KubernetesBug>* bugs = new std::vector<KubernetesBug>{
      {"#53647", "Node"}, {"#68984", "Node"}, {"#55262", "Node"}, {"#56622", "Node"},
      {"#69758", "Node"}, {"#71063", "Node"}, {"#73097", "Node"}, {"#78782", "Node"},
      {"#72895", "Pod"},  {"#68173", "Pod"},  {"#68892", "Pod"},  {"#70898", "Pod"},
      {"#71488", "Pod"},  {"#72259", "Pod"},
  };
  return *bugs;
}

}  // namespace ctstudy
