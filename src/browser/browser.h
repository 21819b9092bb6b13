#ifndef SRC_BROWSER_BROWSER_H_
#define SRC_BROWSER_BROWSER_H_

// PA-links: a provenance-aware text browser (§6.3) over a deterministic
// simulated web.
//
// Provenance is grouped by *session* (a pass_mkobj object). The browser
// captures what is invisible to PASS:
//   * VISITED_URL   — every page the session visited (redirects included),
//   * FILE_URL      — the URL of a downloaded file,
//   * CURRENT_URL   — the page being viewed when the download started,
//   * INPUT         — the downloaded file depends on the session.
// On download, the browser's plain write is replaced by pass_write carrying
// the data plus those three records, so the file and its web provenance
// stay connected across renames and copies (the attribution use case).

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/libpass.h"
#include "src/os/kernel.h"
#include "src/sim/net.h"

namespace pass::browser {

// One page of the simulated web.
struct WebPage {
  std::string content;
  std::vector<std::string> links;
  std::string redirect_to;  // non-empty: 3xx to this URL
  bool downloadable = false;
};

// A tiny deterministic "internet".
class SimWeb {
 public:
  void AddPage(const std::string& url, std::string content,
               std::vector<std::string> links = {});
  void AddRedirect(const std::string& url, const std::string& target);
  void AddDownload(const std::string& url, std::string bytes);
  // Later edits (the hacked-site scenario).
  void ReplaceContent(const std::string& url, std::string bytes);

  Result<const WebPage*> Fetch(const std::string& url) const;

 private:
  std::map<std::string, WebPage> pages_;
};

struct BrowserStats {
  uint64_t redirects_followed = 0;
};

class Browser {
 public:
  // `network` optional (charges fetch traffic when present).
  Browser(os::Kernel* kernel, os::Pid pid, core::LibPass lib, SimWeb* web,
          sim::Network* network = nullptr);

  // Start a session: creates the PASS object provenance is grouped under.
  Status OpenSession();
  // Restore a previous session via pass_reviveobj (the Firefox-restart
  // scenario that motivated reviveobj, §6.5).
  Status RestoreSession(core::PnodeId pnode, core::Version version);
  Result<core::ObjectRef> SessionRef() const;

  // Navigate (follows redirects); returns final page content.
  Result<std::string> Visit(const std::string& url);
  // Download `url` to `local_path` with full provenance.
  Status Download(const std::string& url, const std::string& local_path);

  // The user clears their history: the browser forgets, PASS does not —
  // that asymmetry is the §3.2 attribution use case.
  void ClearHistory() { history_.clear(); }
  const std::vector<std::string>& history() const { return history_; }
  const std::string& current_url() const { return current_url_; }

  // Persist the session's provenance even if no download happened.
  Status SyncSession();

  const BrowserStats& stats() const { return browser_stats_; }

 private:
  void ChargeFetch(size_t bytes);

  os::Kernel* kernel_;
  os::Pid pid_;
  core::LibPass lib_;
  SimWeb* web_;
  sim::Network* network_;
  std::optional<core::PassObject> session_;
  std::string current_url_;
  std::vector<std::string> history_;
  BrowserStats browser_stats_;
};

}  // namespace pass::browser

#endif  // SRC_BROWSER_BROWSER_H_
