#ifndef SRC_PQL_PROVDB_SOURCE_H_
#define SRC_PQL_PROVDB_SOURCE_H_

// GraphSource over Waldo's provenance database.

#include <string>
#include <vector>

#include "src/pql/graph.h"
#include "src/waldo/provdb.h"

namespace pass::pql {

// TYPE attribute value backing a root-set name ("process" -> "PROC",
// otherwise uppercased). "object" is not type-backed and never reaches
// this mapping.
std::string RootSetTypeName(const std::string& name);

// The reads every GraphSource over provenance databases shares, so a
// federated source answers exactly what one database would:
//
// The members of root set `name` in `db` at their latest versions,
// ascending by pnode: every object for "object", otherwise the objects
// whose TYPE is RootSetTypeName(name).
std::vector<Node> RootMembers(const waldo::ProvDb& db, const std::string& name);
// The value set of each node's attribute `attr`: the virtual attributes
// "pnode" and "version" (any case) come from the node itself, and every
// other name from the pnode's rows in `db` (ProvDb::AttributeValuesMany).
std::vector<ValueSet> AttributeSets(const waldo::ProvDb& db,
                                    const std::vector<Node>& nodes,
                                    const std::string& attr);
// The label query results render for `node`, "<label> [<node>]": the
// pnode's latest NAME in `db`, else the first value of its `type` set (the
// values AttributeSets returns, whatever order the rows arrived in), else
// "?".
std::string NodeLabelOf(const waldo::ProvDb& db, const Node& node);

class ProvDbSource : public GraphSource {
 public:
  explicit ProvDbSource(const waldo::ProvDb* db) : db_(db) {}

  std::vector<Node> RootSet(const std::string& name) const override;
  std::vector<std::vector<Node>> FollowMany(const std::vector<Node>& nodes,
                                            const std::string& link,
                                            bool inverse) const override;
  std::vector<ValueSet> AttributeMany(const std::vector<Node>& nodes,
                                      const std::string& attr) const override;
  bool IsLink(const std::string& name) const override;
  std::string NodeLabel(const Node& node) const override;

 private:
  const waldo::ProvDb* db_;
};

}  // namespace pass::pql

#endif  // SRC_PQL_PROVDB_SOURCE_H_
